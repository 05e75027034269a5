// Generic thermal RC network (paper Figure 1).
//
// Nodes carry a heat capacitance; edges carry thermal resistances; each
// node may additionally be tied to ambient through a resistance. Power
// sources inject heat at nodes. Temperatures are stored as *rises above
// ambient* internally; the public API works in absolute degrees Celsius.
//
// Dynamics:  C dT/dt = P - G T        (T = rise over ambient)
// Steady state:  T = G^{-1} P
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "thermal/linalg.h"
#include "thermal/sparse.h"
#include "util/units.h"

namespace hydra::thermal {

class RcNetwork {
 public:
  /// Add a node with the given heat capacitance and return its index.
  /// Capacitance must be positive for transient solves.
  std::size_t add_node(std::string name, util::JoulesPerKelvin capacitance);

  /// Connect nodes a and b through a thermal resistance.
  /// Resistances must be positive; parallel connections accumulate.
  void connect(std::size_t a, std::size_t b, util::KelvinPerWatt ohms);

  /// Connect node `a` to ambient through a thermal resistance.
  void connect_to_ambient(std::size_t a, util::KelvinPerWatt ohms);

  std::size_t size() const { return capacitance_.size(); }
  const std::string& node_name(std::size_t i) const { return names_[i]; }
  util::JoulesPerKelvin capacitance(std::size_t i) const {
    return util::JoulesPerKelvin(capacitance_[i]);
  }

  /// Divide all capacitances by `factor` (> 0). Used to accelerate
  /// simulated thermal time uniformly (see DESIGN.md, time_scale).
  void scale_capacitances(double inv_factor);

  /// Dense conductance matrix G (including ambient ties on the diagonal).
  Matrix conductance_matrix() const;

  /// Sparse CSR assembly of the same G, built straight from the edge
  /// list without ever materialising the dense matrix. Rows are sorted
  /// by column with parallel edges accumulated; every node gets a
  /// diagonal entry (its ambient tie plus incident edge conductances).
  /// Entry-for-entry equal to conductance_matrix() within 4 ulps —
  /// sparse_test asserts it. Not bit for bit: each diagonal starts from
  /// its ambient tie here, where the dense assembly adds the tie last.
  CsrMatrix conductance_csr() const;

  /// Total conductance to ambient — for conservation checks.
  util::WattsPerKelvin total_ambient_conductance() const;

 private:
  struct Edge {
    std::size_t a;
    std::size_t b;
    double conductance_w_per_k;
  };

  std::vector<std::string> names_;
  std::vector<double> capacitance_;
  std::vector<double> ambient_conductance_;
  std::vector<Edge> edges_;
};

}  // namespace hydra::thermal
