// Feeds the property checks of checks.hpp outputs that are right and
// outputs that are broken in one place; every broken one must be rejected.
// Exit status 0 iff every expectation held.
#include <iostream>
#include <string>
#include <vector>

#include "algorithms/serial/serial.hpp"
#include "checks.hpp"
#include "graph/generate.hpp"

namespace {

using namespace indigo;
using studybench::check_output;

int g_failures = 0;

void expect(bool ok, const std::string& what, const std::string& detail) {
  std::cout << (ok ? "[ok]   " : "[FAIL] ") << what;
  if (!detail.empty()) std::cout << " -- " << detail;
  std::cout << '\n';
  if (!ok) ++g_failures;
}

void expect_accepted(const std::string& what, const std::string& error) {
  expect(error.empty(), what + " is accepted", error);
}

void expect_rejected(const std::string& what, const std::string& error) {
  expect(!error.empty(), what + " is rejected", error);
}

std::vector<std::uint32_t> widen(const std::vector<std::uint8_t>& xs) {
  return {xs.begin(), xs.end()};
}

/// First reached vertex other than the source with an in-neighbour, which
/// every test graph here has.
vid_t reached_non_source(const std::vector<dist_t>& d) {
  for (vid_t v = 1; v < d.size(); ++v) {
    if (d[v] != kInfDist && d[v] > 0) return v;
  }
  return 0;
}

void check_graph(const Graph& g) {
  const std::string tag = " on " + g.name();
  const std::uint64_t triangles = studybench::count_triangles(g);
  expect(triangles == serial::tc(g),
         "own triangle count matches the serial reference" + tag, "");

  AlgoOutput bfs;
  const auto levels = serial::bfs(g, 0);
  bfs.labels.assign(levels.begin(), levels.end());
  expect_accepted("BFS levels" + tag,
                  check_output(g, Algorithm::BFS, bfs, triangles));
  const vid_t far = reached_non_source(levels);
  AlgoOutput bfs_up = bfs, bfs_down = bfs;
  bfs_up.labels[far] += 1;
  bfs_down.labels[far] -= 1;
  expect_rejected("BFS level one too high" + tag,
                  check_output(g, Algorithm::BFS, bfs_up, triangles));
  expect_rejected("BFS level one too low" + tag,
                  check_output(g, Algorithm::BFS, bfs_down, triangles));

  AlgoOutput sssp;
  const auto dist = serial::sssp(g, 0);
  sssp.labels.assign(dist.begin(), dist.end());
  expect_accepted("SSSP distances" + tag,
                  check_output(g, Algorithm::SSSP, sssp, triangles));
  const vid_t v = reached_non_source(dist);
  AlgoOutput sssp_up = sssp, sssp_down = sssp;
  sssp_up.labels[v] += 1;
  sssp_down.labels[v] -= 1;
  expect_rejected("SSSP distance too long" + tag,
                  check_output(g, Algorithm::SSSP, sssp_up, triangles));
  expect_rejected("SSSP distance without tight predecessor" + tag,
                  check_output(g, Algorithm::SSSP, sssp_down, triangles));

  AlgoOutput cc;
  const auto comp = serial::cc(g);
  cc.labels.assign(comp.begin(), comp.end());
  expect_accepted("CC labels" + tag,
                  check_output(g, Algorithm::CC, cc, triangles));
  // Split the component of arc 0 across that arc.
  AlgoOutput cc_split = cc;
  cc_split.labels[g.arc_dst(0)] = g.num_vertices();
  expect_rejected("CC label split across an edge" + tag,
                  check_output(g, Algorithm::CC, cc_split, triangles));
  // Relabel a whole component with a larger member id: constant across
  // every edge, but not the minimum.
  AlgoOutput cc_notmin = cc;
  const vid_t root = comp[g.arc_src(0)];
  const vid_t other = std::max(g.arc_src(0), g.arc_dst(0));
  for (auto& l : cc_notmin.labels) {
    if (l == root) l = other;
  }
  expect_rejected("CC label that is not the component minimum" + tag,
                  check_output(g, Algorithm::CC, cc_notmin, triangles));

  AlgoOutput mis;
  mis.labels = widen(serial::mis(g));
  expect_accepted("MIS" + tag, check_output(g, Algorithm::MIS, mis, triangles));
  AlgoOutput mis_adjacent = mis, mis_short = mis;
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    if (mis.labels[g.arc_src(e)] != 0) {
      mis_adjacent.labels[g.arc_dst(e)] = 1;
      mis_short.labels[g.arc_src(e)] = 0;
      break;
    }
  }
  expect_rejected("MIS with an adjacent pair" + tag,
                  check_output(g, Algorithm::MIS, mis_adjacent, triangles));
  expect_rejected("MIS missing a member" + tag,
                  check_output(g, Algorithm::MIS, mis_short, triangles));

  AlgoOutput pr;
  pr.ranks = serial::pagerank(g);
  expect_accepted("PR ranks" + tag,
                  check_output(g, Algorithm::PR, pr, triangles));
  AlgoOutput pr_bad = pr;
  pr_bad.ranks[g.num_vertices() / 2] *= 1.05f;
  expect_rejected("PR rank perturbed by 5%" + tag,
                  check_output(g, Algorithm::PR, pr_bad, triangles));

  AlgoOutput tc;
  tc.count = triangles;
  expect_accepted("TC count" + tag,
                  check_output(g, Algorithm::TC, tc, triangles));
  AlgoOutput tc_bad = tc;
  tc_bad.count += 1;
  expect_rejected("TC count off by one" + tag,
                  check_output(g, Algorithm::TC, tc_bad, triangles));
}

}  // namespace

int main() {
  for (const InputClass c : kAllInputs) {
    check_graph(make_input(c, c == InputClass::CoPaper ? 7u : 8u));
  }
  std::cout << (g_failures == 0 ? "all checks behaved\n"
                                : "some checks misbehaved\n");
  return g_failures == 0 ? 0 : 1;
}
