// The MSP430 core + its memory/I/O environment as a 64-lane batch DUT,
// mirroring the AVR one so campaigns run on both paper cores.
#pragma once

#include "cores/msp430/assembler.hpp"
#include "cores/msp430/core.hpp"
#include "hafi/batch_dut.hpp"

namespace ripple::hafi {

/// The unified word memory is vectorized per lane (each used lane re-seeded
/// from the program image per pass); memory-mapped stores at kIoBase and up
/// become the per-cycle observable compare against the golden lane. The
/// factory captures core and image by reference (both must outlive the
/// campaign).
[[nodiscard]] BatchDutFactory make_msp430_batch_factory(
    const cores::msp430::Msp430Core& core, const cores::msp430::Image& image);

} // namespace ripple::hafi
