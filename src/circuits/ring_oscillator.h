#pragma once

/// \file ring_oscillator.h
/// Odd-stage ring oscillator simulated with the transient engine — an
/// independent validation of the FO1 delay trend (period ~ 2 N t_p).

#include "circuits/inverter.h"

namespace subscale::circuits {

struct RingResult {
  double period = 0.0;     ///< steady-state oscillation period [s]
  double frequency = 0.0;  ///< 1 / period [Hz]
  double stage_delay = 0.0;  ///< period / (2 N) [s]
};

struct RingOptions {
  std::size_t stages = 5;  ///< must be odd and >= 3
};

/// Simulate the ring and extract the oscillation period from successive
/// rising crossings of V_dd/2 at one node: two start-up periods are
/// discarded and the next three averaged.
RingResult simulate_ring(const InverterDevices& devices,
                         const RingOptions& options = {});

}  // namespace subscale::circuits
