#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>

namespace studybench {

using indigo::eid_t;
using indigo::Graph;
using indigo::kInfDist;
using indigo::vid_t;

namespace {

template <typename... Parts>
std::string say(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

std::string size_error(const char* what, std::size_t got, vid_t n) {
  return say(what, " output has ", got, " entries for ", n, " vertices");
}

}  // namespace

std::string check_bfs(const Graph& g, vid_t source,
                      const std::vector<std::uint32_t>& level) {
  const vid_t n = g.num_vertices();
  if (level.size() != n) return size_error("BFS", level.size(), n);
  if (n == 0) return {};
  if (level[source] != 0) return say("BFS source level is ", level[source]);
  std::vector<bool> supported(n, false);
  supported[source] = true;
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    const vid_t u = g.arc_src(e), v = g.arc_dst(e);
    if (level[u] == kInfDist) continue;
    if (level[v] == kInfDist || level[v] > level[u] + 1) {
      return say("BFS arc ", u, "->", v, " skips a level: ", level[u],
                 " -> ", level[v]);
    }
    if (level[v] == level[u] + 1) supported[v] = true;
  }
  for (vid_t v = 0; v < n; ++v) {
    if (level[v] != kInfDist && !supported[v]) {
      return say("BFS vertex ", v, " at level ", level[v],
                 " has no in-neighbour one level up");
    }
  }
  return {};
}

std::string check_sssp(const Graph& g, vid_t source,
                       const std::vector<std::uint32_t>& dist) {
  const vid_t n = g.num_vertices();
  if (dist.size() != n) return size_error("SSSP", dist.size(), n);
  if (n == 0) return {};
  if (dist[source] != 0) return say("SSSP source distance is ", dist[source]);
  std::vector<bool> tight(n, false);
  tight[source] = true;
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    const vid_t u = g.arc_src(e), v = g.arc_dst(e);
    if (dist[u] == kInfDist) continue;
    const std::uint64_t via =
        static_cast<std::uint64_t>(dist[u]) + g.arc_weight(e);
    if (dist[v] == kInfDist || dist[v] > via) {
      return say("SSSP arc ", u, "->", v, " shortens ", dist[v], " to ",
                 via);
    }
    if (dist[v] == via) tight[v] = true;
  }
  for (vid_t v = 0; v < n; ++v) {
    if (dist[v] != kInfDist && !tight[v]) {
      return say("SSSP vertex ", v, " at distance ", dist[v],
                 " has no tight predecessor");
    }
  }
  return {};
}

std::string check_cc(const Graph& g, const std::vector<std::uint32_t>& label) {
  const vid_t n = g.num_vertices();
  if (label.size() != n) return size_error("CC", label.size(), n);
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    const vid_t u = g.arc_src(e), v = g.arc_dst(e);
    if (label[u] != label[v]) {
      return say("CC labels split across arc ", u, "->", v, ": ", label[u],
                 " vs ", label[v]);
    }
  }
  // Walking vertices in id order, the first vertex reached in a component
  // is its smallest id. Arcs are followed both ways so the components are
  // the weak ones even on a graph that is not symmetric.
  std::vector<std::vector<vid_t>> undirected(n);
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    undirected[g.arc_src(e)].push_back(g.arc_dst(e));
    undirected[g.arc_dst(e)].push_back(g.arc_src(e));
  }
  std::vector<vid_t> min_id(n, indigo::kNoVertex);
  std::deque<vid_t> queue;
  for (vid_t root = 0; root < n; ++root) {
    if (min_id[root] != indigo::kNoVertex) continue;
    min_id[root] = root;
    queue.push_back(root);
    while (!queue.empty()) {
      const vid_t u = queue.front();
      queue.pop_front();
      for (const vid_t v : undirected[u]) {
        if (min_id[v] == indigo::kNoVertex) {
          min_id[v] = root;
          queue.push_back(v);
        }
      }
    }
  }
  for (vid_t v = 0; v < n; ++v) {
    if (label[v] != min_id[v]) {
      return say("CC vertex ", v, " has label ", label[v],
                 " but its component's smallest id is ", min_id[v]);
    }
  }
  return {};
}

std::string check_mis(const Graph& g,
                      const std::vector<std::uint32_t>& in_set) {
  const vid_t n = g.num_vertices();
  if (in_set.size() != n) return size_error("MIS", in_set.size(), n);
  std::vector<bool> covered(n, false);
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    const vid_t u = g.arc_src(e), v = g.arc_dst(e);
    if (u == v || in_set[u] == 0) continue;
    if (in_set[v] != 0) {
      return say("MIS members ", u, " and ", v, " are adjacent");
    }
    covered[v] = true;
  }
  for (vid_t v = 0; v < n; ++v) {
    if (in_set[v] == 0 && !covered[v]) {
      return say("MIS is not maximal: vertex ", v,
                 " has no member neighbour");
    }
  }
  return {};
}

std::string check_pr(const Graph& g, const std::vector<float>& ranks) {
  const vid_t n = g.num_vertices();
  if (ranks.size() != n) return size_error("PR", ranks.size(), n);
  if (n == 0) return {};
  constexpr double kDamping = 0.85;
  std::vector<double> next(n, (1.0 - kDamping) / n);
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    const vid_t u = g.arc_src(e), v = g.arc_dst(e);
    next[v] += kDamping * static_cast<double>(ranks[u]) / g.degree(u);
  }
  for (vid_t v = 0; v < n; ++v) {
    const double r = ranks[v];
    if (!std::isfinite(r) || std::abs(next[v] - r) > kPrResidualTol * next[v]) {
      return say("PR vertex ", v, " is off the fixpoint: rank ", r,
                 ", one step gives ", next[v]);
    }
  }
  return {};
}

std::uint64_t count_triangles(const Graph& g) {
  const vid_t n = g.num_vertices();
  std::vector<std::vector<vid_t>> higher(n);
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    const vid_t u = g.arc_src(e), v = g.arc_dst(e);
    if (u < v) higher[u].push_back(v);
    if (v < u) higher[v].push_back(u);
  }
  for (auto& list : higher) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  std::uint64_t count = 0;
  for (vid_t u = 0; u < n; ++u) {
    for (const vid_t v : higher[u]) {
      // Triangles u < v < w: w in both higher[u] and higher[v].
      const auto& a = higher[u];
      const auto& b = higher[v];
      auto i = std::upper_bound(a.begin(), a.end(), v);
      auto j = b.begin();
      while (i != a.end() && j != b.end()) {
        if (*i < *j) {
          ++i;
        } else if (*j < *i) {
          ++j;
        } else {
          ++count;
          ++i;
          ++j;
        }
      }
    }
  }
  return count;
}

std::string check_output(const Graph& g, indigo::Algorithm a,
                         const indigo::AlgoOutput& out,
                         std::uint64_t triangles) {
  switch (a) {
    case indigo::Algorithm::BFS: return check_bfs(g, 0, out.labels);
    case indigo::Algorithm::SSSP: return check_sssp(g, 0, out.labels);
    case indigo::Algorithm::CC: return check_cc(g, out.labels);
    case indigo::Algorithm::MIS: return check_mis(g, out.labels);
    case indigo::Algorithm::PR: return check_pr(g, out.ranks);
    case indigo::Algorithm::TC:
      return out.count == triangles
                 ? std::string()
                 : say("TC counts ", out.count, " triangles, expected ",
                       triangles);
  }
  return "unknown algorithm";
}

}  // namespace studybench
