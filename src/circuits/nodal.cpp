#include "circuits/nodal.h"

#include <algorithm>

#include "doping/mosfet_doping.h"

namespace subscale::circuits {

NodalSystem::NodalSystem(const Circuit& circuit)
    : circuit_(circuit),
      free_(circuit.free_nodes()),
      v_(circuit.node_count(), 0.0),
      dv_old_(circuit.capacitors().size(), 0.0) {
  std::vector<std::size_t> row(circuit.node_count(), kFixed);
  for (std::size_t k = 0; k < free_.size(); ++k) row[free_[k]] = k;
  for (const MosfetInstance& m : circuit.mosfets()) {
    fets_.push_back({m.model.get(),
                     m.model->spec().polarity == doping::Polarity::kNfet,
                     m.drain, m.gate, m.source, row[m.drain], row[m.gate],
                     row[m.source]});
  }
  for (const CapacitorInstance& c : circuit.capacitors()) {
    caps_.push_back({c.a, c.b, c.capacitance, row[c.a], row[c.b]});
  }
  load_fixed();
}

void NodalSystem::load_fixed() {
  for (NodeId id = 0; id < v_.size(); ++id) {
    if (circuit_.is_fixed(id)) v_[id] = circuit_.fixed_voltage(id);
  }
  gmin_ = circuit_.gmin();
}

void NodalSystem::gather(const std::vector<double>& voltages,
                         std::vector<double>& x) const {
  for (std::size_t k = 0; k < free_.size(); ++k) x[k] = voltages[free_[k]];
}

const std::vector<double>& NodalSystem::voltages_at(
    const std::vector<double>& x) {
  for (std::size_t k = 0; k < free_.size(); ++k) v_[free_[k]] = x[k];
  return v_;
}

void NodalSystem::set_step(double dt, const std::vector<double>& v_old) {
  dt_ = dt;
  for (std::size_t c = 0; c < caps_.size(); ++c) {
    dv_old_[c] = v_old[caps_[c].a] - v_old[caps_[c].b];
  }
}

void NodalSystem::evaluate(const std::vector<double>& x,
                           std::vector<double>& f, linalg::DenseMatrix& jac) {
  const std::vector<double>& v = voltages_at(x);
  std::fill(f.begin(), f.end(), 0.0);
  jac.set_zero();
  // Adds g at (row, col) unless the column's node is fixed.
  const auto stamp = [&](std::size_t row, std::size_t col, double g) {
    if (col != kFixed) jac(row, col) += g;
  };
  for (const FetStamp& s : fets_) {
    // NFET: +id enters the drain and leaves the source. PFET (magnitude
    // form, source-referenced): +id enters the source and leaves the drain.
    // Either way the drain row's current has d/dv_d = g_ds, d/dv_g = g_m.
    const compact::DeviceEval e =
        s.is_n ? s.model->evaluate(v[s.gate] - v[s.source],
                                   v[s.drain] - v[s.source])
               : s.model->evaluate(v[s.source] - v[s.gate],
                                   v[s.source] - v[s.drain]);
    const double out_of_drain = s.is_n ? e.id : -e.id;
    const double g_source = -(e.gm + e.gds);
    if (s.drain_row != kFixed) {
      f[s.drain_row] += out_of_drain;
      stamp(s.drain_row, s.drain_row, e.gds);
      stamp(s.drain_row, s.gate_row, e.gm);
      stamp(s.drain_row, s.source_row, g_source);
    }
    if (s.source_row != kFixed) {
      f[s.source_row] -= out_of_drain;
      stamp(s.source_row, s.drain_row, -e.gds);
      stamp(s.source_row, s.gate_row, -e.gm);
      stamp(s.source_row, s.source_row, -g_source);
    }
  }
  for (std::size_t k = 0; k < free_.size(); ++k) {
    f[k] += gmin_ * v[free_[k]];
    jac(k, k) += gmin_;
  }
  if (dt_ == 0.0) return;
  for (std::size_t c = 0; c < caps_.size(); ++c) {
    const CapStamp& s = caps_[c];
    // i_cap flows out of node a into node b.
    const double i_cap = s.capacitance * (v[s.a] - v[s.b] - dv_old_[c]) / dt_;
    const double g = s.capacitance / dt_;
    if (s.a_row != kFixed) {
      f[s.a_row] += i_cap;
      stamp(s.a_row, s.a_row, g);
      stamp(s.a_row, s.b_row, -g);
    }
    if (s.b_row != kFixed) {
      f[s.b_row] -= i_cap;
      stamp(s.b_row, s.b_row, g);
      stamp(s.b_row, s.a_row, -g);
    }
  }
}

}  // namespace subscale::circuits
