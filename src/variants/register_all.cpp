#include "variants/register_all.hpp"

namespace indigo::variants {

void register_all_variants() {
  static const bool once = [] {
    omp::register_omp_cc();
    omp::register_omp_bfs();
    omp::register_omp_sssp();
    omp::register_omp_mis();
    omp::register_omp_pr();
    omp::register_omp_tc();
    cpp::register_cpp_cc();
    cpp::register_cpp_bfs();
    cpp::register_cpp_sssp();
    cpp::register_cpp_mis();
    cpp::register_cpp_pr();
    cpp::register_cpp_tc();
    vc::register_vcuda_cc();
    vc::register_vcuda_bfs();
    vc::register_vcuda_sssp();
    vc::register_vcuda_mis();
    vc::register_vcuda_pr();
    vc::register_vcuda_tc();
    return true;
  }();
  (void)once;
}

}  // namespace indigo::variants
