// The AVR core + its memory/I/O environment as a 64-lane batch DUT.
#pragma once

#include "cores/avr/assembler.hpp"
#include "cores/avr/core.hpp"
#include "hafi/batch_dut.hpp"

namespace ripple::hafi {

/// One BatchSimulator pass carries the golden run in lane 0 and up to 63
/// injection experiments in lanes 1..63. Instruction memory is read-only and
/// shared; data memory is vectorized per lane. The per-cycle environment
/// service mirrors AvrSystem::step exactly, with the I/O log folded into an
/// incremental per-lane compare against the golden lane's event of the same
/// cycle. The factory captures core and program by reference (both must
/// outlive the campaign).
[[nodiscard]] BatchDutFactory make_avr_batch_factory(
    const cores::avr::AvrCore& core, const cores::avr::Program& program);

} // namespace ripple::hafi
