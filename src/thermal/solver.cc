#include "thermal/solver.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/obs.h"

namespace hydra::thermal {

Vector steady_state(const RcNetwork& net, const Vector& power,
                    util::Celsius ambient) {
  if (power.size() != net.size()) {
    throw std::invalid_argument("power vector size mismatch");
  }
  Vector rise = solve_linear(net.conductance_matrix(), power);
  for (double& t : rise) t += ambient.value();
  return rise;
}

Vector steady_state(const LuFactorization& g_lu, const Vector& power,
                    util::Celsius ambient) {
  if (power.size() != g_lu.size()) {
    throw std::invalid_argument("power vector size mismatch");
  }
  Vector rise = g_lu.solve(power);
  for (double& t : rise) t += ambient.value();
  return rise;
}

void steady_state_into(const LuFactorization& g_lu, const Vector& power,
                       util::Celsius ambient, Vector& out) {
  if (power.size() != g_lu.size()) {
    throw std::invalid_argument("power vector size mismatch");
  }
  g_lu.solve_into(power, out);
  for (double& t : out) t += ambient.value();
}

void steady_state_into(const SparseCholesky& g_chol, const Vector& power,
                       util::Celsius ambient, Vector& out, Vector& work) {
  if (power.size() != g_chol.size()) {
    throw std::invalid_argument("power vector size mismatch");
  }
  out.resize(g_chol.size());
  work.resize(g_chol.size());
  g_chol.solve_into(power.data(), out.data(), work.data());
  for (double& t : out) t += ambient.value();
}

LuCache::LuCache(const RcNetwork& net)
    : net_(&net), g_csr_(net.conductance_csr()) {}

Matrix LuCache::backward_euler_matrix(double dt) const {
  Matrix a = net_->conductance_matrix();
  for (std::size_t i = 0; i < net_->size(); ++i) {
    a(i, i) += net_->capacitance(i).value() / dt;
  }
  return a;
}

const LuFactorization& LuCache::steady() const {
  const util::LockGuard lock(mu_);
  if (!steady_lu_) {
    static const obs::Counter factorizations =
        obs::metrics().counter("thermal.lu_factorizations");
    factorizations.add();
    const obs::ScopedSpan span(obs::tracer(), "thermal", "lu_factorize",
                               "steady");
    steady_lu_ =
        std::make_unique<LuFactorization>(net_->conductance_matrix());
  }
  return *steady_lu_;
}

const LuFactorization& LuCache::backward_euler(double dt) const {
  const util::LockGuard lock(mu_);
  auto it = be_cache_.find(dt);
  if (it == be_cache_.end()) {
    static const obs::Counter factorizations =
        obs::metrics().counter("thermal.lu_factorizations");
    factorizations.add();
    const obs::ScopedSpan span(obs::tracer(), "thermal", "lu_factorize",
                               "backward_euler");
    it = be_cache_
             .emplace(dt, std::make_unique<LuFactorization>(
                              backward_euler_matrix(dt)))
             .first;
  }
  return *it->second;
}

const FusedStepOperator& LuCache::fused(double dt) const {
  const util::LockGuard lock(mu_);
  auto it = fused_cache_.find(dt);
  if (it == fused_cache_.end()) {
    static const obs::Counter builds =
        obs::metrics().counter("thermal.fused_operator_builds");
    builds.add();
    const obs::ScopedSpan span(obs::tracer(), "thermal", "lu_factorize",
                               "fused_be");
    const std::size_t n = net_->size();
    const LuFactorization lu(backward_euler_matrix(dt));
    auto op = std::make_unique<FusedStepOperator>();
    op->pm = simd::PackedMatrix(n, n);
    op->pn = simd::PackedMatrix(n, n);
    // Column j of N is the solve against the j-th basis vector; M scales
    // each column by that node's C/dt.
    Vector basis(n, 0.0);
    Vector col(n);
    for (std::size_t j = 0; j < n; ++j) {
      basis[j] = 1.0;
      lu.solve_into(basis, col);
      basis[j] = 0.0;
      const double c_over_dt = net_->capacitance(j).value() / dt;
      for (std::size_t i = 0; i < n; ++i) {
        op->pn.at(i, j) = col[i];
        op->pm.at(i, j) = col[i] * c_over_dt;
      }
    }
    it = fused_cache_.emplace(dt, std::move(op)).first;
  }
  return *it->second;
}

const SparseStepOperator& LuCache::sparse(double dt) const {
  const util::LockGuard lock(mu_);
  auto it = sparse_cache_.find(dt);
  if (it == sparse_cache_.end()) {
    static const obs::Counter builds =
        obs::metrics().counter("thermal.sparse_operator_builds");
    builds.add();
    const obs::ScopedSpan span(obs::tracer(), "thermal", "sparse_factorize",
                               "sparse_be");
    const std::size_t n = net_->size();
    // Assemble C/dt + G directly in CSR: copy the G structure and add
    // the capacitive term on the (always present) diagonal entries.
    CsrMatrix a = g_csr_;
    Vector c_over_dt(n);
    for (std::size_t i = 0; i < n; ++i) {
      c_over_dt[i] = net_->capacitance(i).value() / dt;
      for (std::size_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
        if (static_cast<std::size_t>(a.col_idx[p]) == i) {
          a.values[p] += c_over_dt[i];
          break;
        }
      }
    }
    it = sparse_cache_
             .emplace(dt, std::make_unique<SparseStepOperator>(
                              SparseCholesky(a), std::move(c_over_dt)))
             .first;
  }
  return *it->second;
}

const SparseCholesky& LuCache::steady_sparse() const {
  const util::LockGuard lock(mu_);
  if (!steady_chol_) {
    static const obs::Counter builds =
        obs::metrics().counter("thermal.sparse_operator_builds");
    builds.add();
    const obs::ScopedSpan span(obs::tracer(), "thermal", "sparse_factorize",
                               "steady");
    steady_chol_ = std::make_unique<SparseCholesky>(g_csr_);
  }
  return *steady_chol_;
}

TransientSolver::TransientSolver(const RcNetwork& net, util::Celsius ambient,
                                 Scheme scheme,
                                 std::shared_ptr<const LuCache> lu_cache)
    : net_(&net),
      ambient_(ambient.value()),
      scheme_(scheme),
      celsius_(net.size(), ambient.value()),
      lu_cache_(lu_cache ? std::move(lu_cache)
                         : std::make_shared<const LuCache>(net)),
      rhs_(net.size()),
      rise_(net.size()),
      tmp_(net.size()),
      rise_pad_(simd::padded_size(net.size()), 0.0),
      pow_pad_(simd::padded_size(net.size()), 0.0),
      chol_work_(net.size()) {
  use_sparse_ = scheme_ == Scheme::kFusedBE && use_sparse_step(net.size());
}

void TransientSolver::set_temperatures(const Vector& celsius) {
  if (celsius.size() != net_->size()) {
    throw std::invalid_argument("temperature vector size mismatch");
  }
  celsius_ = celsius;
}

void TransientSolver::initialize_steady_state(const Vector& power) {
  if (use_sparse_) {
    // Same G, factorised sparsely; agrees with the dense steady solve
    // to solver round-off (sparse_test bounds it). A factorisation
    // failure (never expected — G is SPD by construction) falls back to
    // the dense path rather than failing the run.
    try {
      steady_state_into(lu_cache_->steady_sparse(), power,
                        util::Celsius(ambient_), celsius_, chol_work_);
      return;
    } catch (const std::exception&) {
    }
  }
  celsius_ = steady_state(lu_cache_->steady(), power, util::Celsius(ambient_));
}

void TransientSolver::step(const Vector& power, util::Seconds dt) {
  if (power.size() != net_->size()) {
    throw std::invalid_argument("power vector size mismatch");
  }
  if (dt.value() <= 0.0) {
    throw std::invalid_argument("time step must be positive");
  }
  switch (scheme_) {
    case Scheme::kBackwardEuler:
      step_backward_euler(power, dt.value());
      break;
    case Scheme::kFusedBE:
      if (use_sparse_) {
        step_sparse_be(power, dt.value());
      } else {
        step_fused_be(power, dt.value());
      }
      break;
  }
}

double round_step_dt(double dt) {
  const double mag = std::pow(10.0, std::floor(std::log10(dt)) - 2.0);
  return std::round(dt / mag) * mag;
}

void TransientSolver::step_backward_euler(const Vector& power, double dt) {
  static const obs::Counter be_steps =
      obs::metrics().counter("thermal.be_steps");
  be_steps.add();
  const std::size_t n = net_->size();
  dt = round_step_dt(dt);
  if (last_lu_ == nullptr || dt != last_dt_) {
    last_lu_ = &lu_cache_->backward_euler(dt);
    last_dt_ = dt;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double rise = celsius_[i] - ambient_;
    rhs_[i] = net_->capacitance(i).value() / dt * rise + power[i];
  }
  last_lu_->solve_into(rhs_, rise_);
  for (std::size_t i = 0; i < n; ++i) celsius_[i] = ambient_ + rise_[i];
}

void TransientSolver::step_fused_be(const Vector& power, double dt) {
  // After a guard trip the fused operator is suspect for good: stay on
  // the reference LU scheme for the rest of this solver's life.
  if (fused_disabled_) {
    step_backward_euler(power, dt);
    return;
  }
  static const obs::Counter fused_steps =
      obs::metrics().counter("thermal.fused_be_steps");
  fused_steps.add();
  const std::size_t n = net_->size();
  const double dt_in = dt;
  dt = round_step_dt(dt);
  if (last_fused_ == nullptr || dt != last_fused_dt_) {
    last_fused_ = &lu_cache_->fused(dt);
    last_fused_dt_ = dt;
  }
  // rise' = M rise + N P over the packed padded-row operators — all
  // scratch preallocated, so the steady-state path allocates nothing
  // (the operator itself is built on first use).
  // The candidate update is validated in scratch before celsius_ is
  // touched, so a rejected step leaves the state exactly as it was and
  // the LU fallback recomputes the same step from the same inputs.
  for (std::size_t i = 0; i < n; ++i) {
    rise_pad_[i] = celsius_[i] - ambient_;
    pow_pad_[i] = power[i];
  }
  simd::packed_matvec(last_fused_->pm, rise_pad_.data(), tmp_.data());
  simd::packed_matvec(last_fused_->pn, pow_pad_.data(), rhs_.data());
  if (inject_fused_fault_) {
    inject_fused_fault_ = false;
    tmp_[0] = std::numeric_limits<double>::quiet_NaN();
  }
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    const double rise = tmp_[i] + rhs_[i];
    tmp_[i] = rise;
    // !(|rise| < bound) also catches NaN (any comparison is false).
    if (!(std::abs(rise) < kMaxPlausibleRise)) ok = false;
  }
  if (ok) {
    for (std::size_t i = 0; i < n; ++i) celsius_[i] = ambient_ + tmp_[i];
    return;
  }
  ++fused_guard_trips_;
  fused_disabled_ = true;
  static const obs::Counter guard_trips =
      obs::metrics().counter("thermal.fused_guard_trips");
  guard_trips.add();
  step_backward_euler(power, dt_in);
}

void TransientSolver::step_sparse_be(const Vector& power, double dt) {
  // Mirror of step_fused_be's guard/fallback protocol on the sparse
  // substitution path: after a trip (or a failed factorisation) the
  // operator is suspect for good — stay on the reference LU scheme.
  if (fused_disabled_) {
    step_backward_euler(power, dt);
    return;
  }
  static const obs::Counter sparse_steps =
      obs::metrics().counter("thermal.sparse_be_steps");
  sparse_steps.add();
  const std::size_t n = net_->size();
  const double dt_in = dt;
  dt = round_step_dt(dt);
  if (last_sparse_ == nullptr || dt != last_sparse_dt_) {
    const SparseStepOperator* op = nullptr;
    try {
      op = &lu_cache_->sparse(dt);
    } catch (const std::exception&) {
      op = nullptr;
    }
    if (op == nullptr) {
      ++fused_guard_trips_;
      fused_disabled_ = true;
      static const obs::Counter guard_trips =
          obs::metrics().counter("thermal.fused_guard_trips");
      guard_trips.add();
      step_backward_euler(power, dt_in);
      return;
    }
    last_sparse_ = op;
    last_sparse_dt_ = dt;
  }
  // rhs = (C/dt) rise + P, then one LDL^T substitution — all scratch
  // preallocated, so the steady-state path allocates nothing. The
  // explicit fma pins the rhs arithmetic: the compiler may or may not
  // contract a * b + c on its own, and results must not depend on it.
  const Vector& c_over_dt = last_sparse_->c_over_dt;
  for (std::size_t i = 0; i < n; ++i) {
    rhs_[i] = std::fma(c_over_dt[i], celsius_[i] - ambient_, power[i]);
  }
  last_sparse_->chol.solve_into(rhs_.data(), tmp_.data(), chol_work_.data());
  if (inject_fused_fault_) {
    inject_fused_fault_ = false;
    tmp_[0] = std::numeric_limits<double>::quiet_NaN();
  }
  // Same validate-in-scratch protocol as the fused step: a rejected
  // candidate leaves celsius_ untouched and LU recomputes the step.
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    // !(|rise| < bound) also catches NaN (any comparison is false).
    if (!(std::abs(tmp_[i]) < kMaxPlausibleRise)) ok = false;
  }
  if (ok) {
    for (std::size_t i = 0; i < n; ++i) celsius_[i] = ambient_ + tmp_[i];
    return;
  }
  ++fused_guard_trips_;
  fused_disabled_ = true;
  static const obs::Counter guard_trips =
      obs::metrics().counter("thermal.fused_guard_trips");
  guard_trips.add();
  step_backward_euler(power, dt_in);
}

}  // namespace hydra::thermal
