// Steady-state and transient solvers for thermal RC networks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "thermal/linalg.h"
#include "thermal/rc_network.h"
#include "thermal/simd.h"
#include "thermal/sparse.h"
#include "util/sync.h"
#include "util/thread_annotations.h"
#include "util/units.h"

namespace hydra::thermal {

/// Absolute steady-state temperatures [deg C] for the given per-node power
/// vector [W] and ambient temperature: T = ambient + G^{-1} P. Bulk node
/// vectors stay raw doubles (the solver kernel boundary); scalars are
/// strongly typed.
Vector steady_state(const RcNetwork& net, const Vector& power,
                    util::Celsius ambient);

/// Same computation against a prebuilt factorisation of the conductance
/// matrix G (bit-identical to the overload above when `g_lu` was built
/// from `net.conductance_matrix()`).
Vector steady_state(const LuFactorization& g_lu, const Vector& power,
                    util::Celsius ambient);

/// Allocation-free variant: writes the solution into `out` (resized on
/// first use, reused afterwards). `out` must not alias `power`.
void steady_state_into(const LuFactorization& g_lu, const Vector& power,
                       util::Celsius ambient, Vector& out);

/// Sparse twin against a Cholesky factor of G (LuCache::steady_sparse).
/// `work` is solver scratch (resized on first use); neither `out` nor
/// `work` may alias `power`. Agrees with the dense overloads to
/// solver round-off (sparse_test bounds it).
void steady_state_into(const SparseCholesky& g_chol, const Vector& power,
                       util::Celsius ambient, Vector& out, Vector& work);

/// Integration scheme for the transient solver. Both are backward
/// Euler; the explicit RK4 they are cross-validated against is a test
/// helper (tests/rk4_reference.h).
enum class Scheme {
  kBackwardEuler,  ///< unconditionally stable; LU cached per time step
  kFusedBE,        ///< backward Euler via a precomputed step operator:
                   ///< two contiguous matvecs per step instead of a
                   ///< pivoted forward/back substitution
};

/// Precomputed backward-Euler step operator for one (rounded) dt. The
/// implicit update (C/dt + G) rise' = (C/dt) rise + P is solved once,
/// symbolically, by inverting the system matrix:
///   rise' = M rise + N P,   N = (C/dt + G)^{-1},  M = N diag(C/dt),
/// so each step is two dense row-major matvecs — contiguous, branch-free
/// and auto-vectorizable, where the LU substitution walk is neither.
/// Agrees with the LU path to solver round-off (validated to <= 1e-9 degC
/// over full runs by thermal_fastpath tests before kFusedBE became the
/// simulation default).
struct FusedStepOperator {
  /// M and N in padded-row packed form (LuCache::fused writes the solve
  /// columns straight into them; no dense copy is kept): the per-step
  /// kernels run on these so the inner loops are tail-free stride-1 FMA.
  /// Padding is exact zeros.
  simd::PackedMatrix pm;  ///< M: multiplies the current temperature rise
  simd::PackedMatrix pn;  ///< N: multiplies the power vector
};

/// Sparse backward-Euler step state for one (rounded) dt: the LDL^T
/// factor of C/dt + G plus the C/dt diagonal that forms the right-hand
/// side. Each step is rhs = (C/dt) rise + P followed by one sparse
/// substitution — O(nnz(L)) where the fused path is O(n^2) — at the
/// cost of a sequential (not panel-free) dependency chain, which is why
/// small models keep the dense path (see sparse.h, use_sparse_step).
struct SparseStepOperator {
  SparseCholesky chol;
  Vector c_over_dt;

  SparseStepOperator(SparseCholesky&& c, Vector cd)
      : chol(std::move(c)), c_over_dt(std::move(cd)) {}
};

/// Round dt to 3 significant figures so DVS-induced variation in the
/// wall-clock length of a 10k-cycle interval maps onto a bounded set of
/// cached factorisations. The rounded dt is used for the integration
/// itself, keeping matrix and right-hand side consistent (sub-percent
/// step-length error, negligible against the ms-scale time constants).
/// Shared by every backward-Euler path, so they all key the same cache
/// entries and integrate identical step lengths.
double round_step_dt(double dt);

/// Guard bound shared by the fused-BE and sparse steps: a temperature
/// rise beyond this is divergence, not physics (silicon melts three
/// orders of magnitude earlier). Deliberately loose so the guard can
/// never veto a legitimate transient.
inline constexpr double kMaxPlausibleRise = 1.0e6;

/// Thread-safe cache of the factorisations a thermal network needs:
/// the steady-state LU of G, one backward-Euler LU of (C/dt + G) per
/// distinct (rounded) time step, and one fused step operator per dt. One
/// instance can be shared by every System built over the same (package,
/// time_scale) — solving against a factorisation (or multiplying by a
/// fused operator) is read-only, so concurrent solvers are safe; only
/// the first builder of a given dt pays the construction cost.
///
/// The cache holds no dense G: each dense build assembles one from the
/// network (RcNetwork::conductance_matrix) and keeps only the result,
/// so a sparse-path model never forms an n^2 matrix at all. It does
/// not densify the CSR copy: that assembly sums each diagonal in a
/// different order, and the dense factors must stay bit-identical.
class LuCache {
 public:
  /// `net` must outlive the cache; its conductances and capacitances
  /// must not change after construction.
  explicit LuCache(const RcNetwork& net);

  std::size_t size() const { return net_->size(); }

  /// Factorisation of G for steady-state solves (the dense path's;
  /// the sparse path solves against steady_sparse()).
  const LuFactorization& steady() const;

  /// Factorisation of (C/dt + G) for the given *already rounded* dt
  /// [s]. Raw double: this is below the typed boundary, keyed by the
  /// exact bit pattern the stepper rounded to.
  const LuFactorization& backward_euler(double dt) const;

  /// Fused step operator for the given *already rounded* dt [s]; built
  /// on first use from the same (C/dt + G) matrix as backward_euler().
  const FusedStepOperator& fused(double dt) const;

  /// Sparse LDL^T step operator for the given *already rounded* dt [s]:
  /// the factor of C/dt + G assembled in CSR (the dense matrix is never
  /// formed). Throws std::runtime_error if the factorisation fails —
  /// callers fall back to the dense LU path.
  const SparseStepOperator& sparse(double dt) const;

  /// Sparse Cholesky factor of G itself, for steady-state solves on the
  /// sparse path.
  const SparseCholesky& steady_sparse() const;

  /// The CSR assembly of G this cache factorises from (tests compare it
  /// to the dense conductance_matrix()).
  const CsrMatrix& conductance_csr() const { return g_csr_; }

 private:
  /// Dense C/dt + G, assembled afresh for one backward-Euler build.
  Matrix backward_euler_matrix(double dt) const;

  const RcNetwork* net_;
  CsrMatrix g_csr_;
  /// Guards lazy construction only: the returned factorisations and
  /// operators are immutable once built, so callers solve against the
  /// references lock-free.
  mutable util::Mutex mu_;
  mutable std::unique_ptr<LuFactorization> steady_lu_ HYDRA_GUARDED_BY(mu_);
  mutable std::unique_ptr<SparseCholesky> steady_chol_ HYDRA_GUARDED_BY(mu_);
  mutable std::map<double, std::unique_ptr<LuFactorization>> be_cache_
      HYDRA_GUARDED_BY(mu_);
  mutable std::map<double, std::unique_ptr<FusedStepOperator>> fused_cache_
      HYDRA_GUARDED_BY(mu_);
  mutable std::map<double, std::unique_ptr<SparseStepOperator>> sparse_cache_
      HYDRA_GUARDED_BY(mu_);
};

/// Time-stepping solver. Owns the current temperature state.
///
/// Backward Euler solves (C/dt + G) T' = (C/dt) T + P each step and caches
/// the factorisation per distinct dt (DVS transitions change the wall-clock
/// length of a 10k-cycle step, so a handful of distinct dts recur). The
/// factorisations live in an LuCache that may be shared across solvers;
/// a per-solver memo of the last dt keeps the steady-state hot path free
/// of both locking and map lookups.
class TransientSolver {
 public:
  /// `lu_cache` may be shared across solvers over the same network; when
  /// null a private cache is created.
  TransientSolver(const RcNetwork& net, util::Celsius ambient,
                  Scheme scheme = Scheme::kBackwardEuler,
                  std::shared_ptr<const LuCache> lu_cache = nullptr);

  /// Set all node temperatures [deg C].
  void set_temperatures(const Vector& celsius);
  /// Initialise to the steady state for `power`.
  void initialize_steady_state(const Vector& power);

  /// Advance by `dt` with constant per-node power [W].
  void step(const Vector& power, util::Seconds dt);

  /// Current absolute temperatures [deg C].
  const Vector& temperatures() const { return celsius_; }
  util::Celsius temperature(std::size_t node) const {
    return util::Celsius(celsius_[node]);
  }
  util::Celsius ambient() const { return util::Celsius(ambient_); }

  /// Times the fast-path guard (fused or sparse) rejected a step
  /// (NaN/Inf or divergence) and fell back to the reference LU path.
  /// After the first trip the solver stays on LU for its lifetime — the
  /// step operator is suspect, and LU is the scheme it was validated
  /// against.
  std::uint64_t fused_guard_trips() const { return fused_guard_trips_; }

  /// Test seam: poison the next fast-path step's candidate update with
  /// a NaN, as a corrupted step operator would. The guard must catch
  /// it, fall back to LU within the same step, and keep the run's
  /// results identical to a pure-LU twin (recovery_test asserts this;
  /// sparse_test asserts the sparse-path twin).
  void inject_fused_fault_for_test() { inject_fused_fault_ = true; }

  /// True when Scheme::kFusedBE steps route through the sparse LDL^T
  /// substitution for this model size (sparse.h, use_sparse_step —
  /// resolved once at construction).
  bool sparse_path() const { return use_sparse_; }

 private:
  void step_backward_euler(const Vector& power, double dt);
  void step_fused_be(const Vector& power, double dt);
  void step_sparse_be(const Vector& power, double dt);

  const RcNetwork* net_;
  double ambient_;
  Scheme scheme_;
  Vector celsius_;
  std::shared_ptr<const LuCache> lu_cache_;
  // Last-used factorisation memo: the common case is a constant dt, so
  // the per-step path touches neither the cache mutex nor the map.
  double last_dt_ = 0.0;
  const LuFactorization* last_lu_ = nullptr;
  double last_fused_dt_ = 0.0;
  const FusedStepOperator* last_fused_ = nullptr;
  double last_sparse_dt_ = 0.0;
  const SparseStepOperator* last_sparse_ = nullptr;
  /// kFusedBE routes through the sparse path for this model (decided
  /// once at construction from the HYDRA_SPARSE policy + node count).
  bool use_sparse_ = false;
  // Fast-path numerical guard state, shared by the fused and sparse
  // steps (see step_fused_be / step_sparse_be).
  std::uint64_t fused_guard_trips_ = 0;
  bool fused_disabled_ = false;
  bool inject_fused_fault_ = false;
  // Preallocated scratch so the per-step hot path never allocates.
  Vector rhs_;
  Vector rise_;
  Vector tmp_;
  // Padded inputs for the packed fused-BE kernels: sized to the packed
  // stride with the tail zeroed once, so the SIMD inner loop never
  // needs a tail pass (padding terms are exact fma no-ops).
  Vector rise_pad_, pow_pad_;
  // Substitution scratch for the sparse step/steady solves.
  Vector chol_work_;
};

}  // namespace hydra::thermal
