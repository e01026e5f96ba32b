// Output checks that do not use the program's serial references.
//
// The program's own Verifier compares every output with a serial reference
// from src/algorithms/serial. The checks here test the properties each
// algorithm's output must have instead, with code that shares nothing with
// the program beyond the graph type, so a fault common to a variant and its
// reference still shows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "core/styles.hpp"
#include "graph/csr.hpp"

namespace studybench {

/// Every check returns an empty string when the output has the property and
/// a one-line description of the first violation otherwise.

/// BFS levels: the source is at 0, no arc (u, v) has level[v] > level[u] + 1,
/// and every other reached vertex has an in-arc from level[v] - 1.
std::string check_bfs(const indigo::Graph& g, indigo::vid_t source,
                      const std::vector<std::uint32_t>& level);

/// SSSP distances: the source is at 0, no arc can shorten a distance, and
/// every other reached vertex has a tight predecessor arc.
std::string check_sssp(const indigo::Graph& g, indigo::vid_t source,
                       const std::vector<std::uint32_t>& dist);

/// CC labels: equal across every arc, and each label is the smallest vertex
/// id of its component (components found here by a breadth-first walk).
std::string check_cc(const indigo::Graph& g,
                     const std::vector<std::uint32_t>& label);

/// MIS membership (nonzero = in the set): no arc joins two members, and
/// every non-member has a member neighbour.
std::string check_mis(const indigo::Graph& g,
                      const std::vector<std::uint32_t>& in_set);

/// PageRank (d = 0.85, dangling mass dropped): one Jacobi step applied to
/// the ranks moves no vertex by more than kPrResidualTol of its new rank.
inline constexpr double kPrResidualTol = 1e-2;
std::string check_pr(const indigo::Graph& g, const std::vector<float>& ranks);

/// Unique triangles by sorted-list intersection over a copy of the
/// adjacency that this file sorts and deduplicates itself.
std::uint64_t count_triangles(const indigo::Graph& g);

/// Dispatches on the algorithm. `triangles` is count_triangles(g), passed
/// in so a caller checking many TC outputs of one graph counts once.
std::string check_output(const indigo::Graph& g, indigo::Algorithm a,
                         const indigo::AlgoOutput& out,
                         std::uint64_t triangles);

}  // namespace studybench
