#include "graph/csr.hpp"

#include <algorithm>
#include <stdexcept>

namespace indigo {

Graph::Graph(std::vector<eid_t> row_index, std::vector<vid_t> col_index,
             std::vector<vid_t> src_list, std::vector<weight_t> weights,
             std::string name)
    : row_index_(std::move(row_index)),
      col_index_(std::move(col_index)),
      src_list_(std::move(src_list)),
      weights_(std::move(weights)),
      name_(std::move(name)) {
  validate();
}

bool Graph::has_edge(vid_t u, vid_t w) const {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), w);
}

std::size_t Graph::size_bytes() const {
  return row_index_.size() * sizeof(eid_t) +
         col_index_.size() * sizeof(vid_t) + src_list_.size() * sizeof(vid_t) +
         weights_.size() * sizeof(weight_t);
}

void Graph::validate() const {
  if (row_index_.empty()) {
    throw std::invalid_argument("row_index must have >= 1 entry");
  }
  if (row_index_.front() != 0) {
    throw std::invalid_argument("row_index must start at 0");
  }
  if (row_index_.back() != col_index_.size()) {
    throw std::invalid_argument("row_index must end at num_edges");
  }
  if (!std::is_sorted(row_index_.begin(), row_index_.end())) {
    throw std::invalid_argument("row_index must be non-decreasing");
  }
  if (src_list_.size() != col_index_.size() ||
      weights_.size() != col_index_.size()) {
    throw std::invalid_argument("COO arrays must match edge count");
  }
  const vid_t n = num_vertices();
  for (vid_t v = 0; v < n; ++v) {
    const auto nbrs = neighbors(v);
    if (!std::is_sorted(nbrs.begin(), nbrs.end())) {
      throw std::invalid_argument("adjacency lists must be sorted");
    }
    for (eid_t e = begin_edge(v); e < end_edge(v); ++e) {
      if (col_index_[e] >= n) {
        throw std::invalid_argument("destination vertex out of range");
      }
      if (src_list_[e] != v) {
        throw std::invalid_argument("src_list inconsistent with row_index");
      }
    }
  }
}

GraphBuilder::GraphBuilder(vid_t num_vertices, std::string name)
    : n_(num_vertices), name_(std::move(name)) {}

void GraphBuilder::add_arc(vid_t u, vid_t v, weight_t w) {
  if (u >= n_ || v >= n_) {
    throw std::out_of_range("GraphBuilder::add_arc: vertex id out of range");
  }
  arcs_.push_back({u, v, w});
}

void GraphBuilder::add_undirected(vid_t u, vid_t v, weight_t w) {
  add_arc(u, v, w);
  add_arc(v, u, w);
}

Graph GraphBuilder::finish(FinishOptions opts) {
  if (opts.remove_self_loops) {
    std::erase_if(arcs_, [](const Arc& a) { return a.u == a.v; });
  }
  std::sort(arcs_.begin(), arcs_.end(), [](const Arc& a, const Arc& b) {
    if (a.u != b.u) return a.u < b.u;
    if (a.v != b.v) return a.v < b.v;
    return a.w < b.w;
  });
  if (opts.remove_duplicates) {
    // Keep the minimum weight per (u, v) pair. Sorting by weight makes the
    // choice deterministic AND symmetric: (u,v) and (v,u) see the same
    // weight multiset, so both directions keep the same weight, which the
    // pull-style codes rely on (they traverse the reverse arc).
    arcs_.erase(std::unique(arcs_.begin(), arcs_.end(),
                            [](const Arc& a, const Arc& b) {
                              return a.u == b.u && a.v == b.v;
                            }),
                arcs_.end());
  }

  std::vector<eid_t> row(n_ + 1, 0);
  for (const Arc& a : arcs_) {
    ++row[a.u + 1];
  }
  for (vid_t v = 0; v < n_; ++v) {
    row[v + 1] += row[v];
  }
  std::vector<vid_t> col(arcs_.size());
  std::vector<vid_t> src(arcs_.size());
  std::vector<weight_t> wts(arcs_.size());
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    col[i] = arcs_[i].v;
    src[i] = arcs_[i].u;
    wts[i] = arcs_[i].w;
  }
  arcs_.clear();
  arcs_.shrink_to_fit();
  return Graph(std::move(row), std::move(col), std::move(src), std::move(wts),
               std::move(name_));
}

}  // namespace indigo
