#include "bist/kit.hpp"

#include "common/bits.hpp"
#include "common/check.hpp"
#include "gate/sim.hpp"

namespace fdbist::bist {

BistKit::BistKit(const rtl::FilterDesign& design, int misr_width)
    : design_(design), lowered_(gate::lower(design.graph)),
      faults_(fault::order_for_simulation(
          fault::enumerate_adder_faults(lowered_), lowered_.netlist,
          design.graph)),
      misr_width_(misr_width) {
  FDBIST_REQUIRE(misr_width >= design.stats().width_out,
                 "MISR must be at least as wide as the output word");
}

std::vector<std::int64_t> BistKit::golden_response(
    std::span<const std::int64_t> stimulus) const {
  // The time-parallel good machine, reading only the output bits: one
  // 64x64 transpose per step turns the output nets' lane words into
  // one output word per lane (= per cycle). No trace is built.
  const gate::CompiledSchedule sched(lowered_.netlist);
  const auto& out_bits = lowered_.netlist.outputs().front();
  const int width = static_cast<int>(out_bits.size());
  FDBIST_REQUIRE(width <= 64, "output wider than a response word");
  const std::size_t cycles = stimulus.size();
  const std::size_t seg = gate::sweep_segment_length(cycles);
  std::vector<std::int64_t> out(cycles);
  gate::sweep_good_machine(
      sched, stimulus, cycles, [&](std::size_t s, const gate::WordSim& sim) {
        std::uint64_t blk[64] = {};
        for (std::size_t j = 0; j < out_bits.size(); ++j)
          blk[j] = sim.net(out_bits[j]);
        transpose64(blk);
        for (std::size_t k = 0; k * seg + s < cycles; ++k)
          out[k * seg + s] = sign_extend(blk[k], width);
      });
  return out;
}

std::uint32_t BistKit::golden_signature(
    std::span<const std::int64_t> stimulus) const {
  Misr misr(misr_width_);
  const auto trace = golden_response(stimulus);
  misr.absorb_all(trace);
  return misr.signature();
}

BistReport BistKit::evaluate(tpg::Generator& gen, std::size_t vectors,
                             const fault::FaultSimOptions& opt) const {
  FDBIST_REQUIRE(vectors > 0, "need at least one test vector");
  gen.reset();
  const auto stimulus = gen.generate_raw(vectors);

  BistReport report;
  report.vectors = vectors;
  report.fault_result =
      fault::simulate_faults(lowered_.netlist, stimulus, faults_, opt);
  report.total_faults = report.fault_result.total_faults;
  report.detected = report.fault_result.detected;
  report.golden_signature = golden_signature(stimulus);
  return report;
}

std::vector<fault::Fault> BistKit::undetected_faults(
    const fault::FaultSimResult& r) const {
  FDBIST_REQUIRE(r.detect_cycle.size() == faults_.size(),
                 "result does not match this kit's fault universe");
  std::vector<fault::Fault> out;
  for (std::size_t i = 0; i < faults_.size(); ++i)
    if (r.detect_cycle[i] < 0) out.push_back(faults_[i]);
  return out;
}

bool BistKit::signature_detects(const fault::Fault& f,
                                std::span<const std::int64_t> stimulus) const {
  gate::WordSim sim(lowered_.netlist);
  sim.add_fault(f.gate, f.site, f.stuck, std::uint64_t{1} << 1);
  const auto& out_bits = lowered_.netlist.outputs().front();
  Misr good(misr_width_);
  Misr bad(misr_width_);
  for (const std::int64_t x : stimulus) {
    sim.step_broadcast(x);
    good.absorb(static_cast<std::uint64_t>(sim.lane_value(out_bits, 0)));
    bad.absorb(static_cast<std::uint64_t>(sim.lane_value(out_bits, 1)));
  }
  return good.signature() != bad.signature();
}

} // namespace fdbist::bist
