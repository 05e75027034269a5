#include "arch/core.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace hydra::arch {

using floorplan::BlockId;

Core::Core(const CoreConfig& cfg, TraceSource& trace)
    : cfg_(cfg),
      trace_(&trace),
      bpred_(cfg.bpred_index_bits, cfg.bpred_history_bits),
      icache_(cfg.icache),
      dcache_(cfg.dcache),
      l2_(cfg.l2),
      itb_(),
      dtb_() {
  if (cfg_.rob_entries <= 0 || cfg_.fetch_width <= 0 ||
      cfg_.rename_width <= 0 || cfg_.issue_width <= 0 ||
      cfg_.commit_width <= 0 || cfg_.frontend_entries <= 0) {
    throw std::invalid_argument("core widths/capacities must be positive");
  }
  if (cfg_.predictor == CoreConfig::Predictor::kTournament) {
    tournament_.emplace(cfg_.tournament);
  }
  rob_.resize(static_cast<std::size_t>(cfg_.rob_entries));
  slot_state_.assign(rob_.size(), kSlotIssued);
  scan_mask_.assign((rob_.size() + 63) / 64, 0);
  consumer_head_.assign(rob_.size(), -1);
  consumer_next_.assign(rob_.size(), -1);
  frontend_.resize(static_cast<std::size_t>(cfg_.frontend_entries));
  set_frequency(cfg_.nominal_frequency_hz);
}

void Core::set_fetch_gate_fraction(double g) {
  if (g < 0.0 || g > 1.0) {
    throw std::invalid_argument("fetch gate fraction must be in [0, 1]");
  }
  gate_fraction_ = g;
}

void Core::set_issue_gate_fraction(double g) {
  if (g < 0.0 || g > 1.0) {
    throw std::invalid_argument("issue gate fraction must be in [0, 1]");
  }
  issue_gate_fraction_ = g;
}

bool Core::predict_branch(std::uint64_t pc) {
  return tournament_ ? tournament_->predict(pc) : bpred_.predict(pc);
}

void Core::update_predictor(std::uint64_t pc, bool taken) {
  if (tournament_) {
    tournament_->update(pc, taken);
  } else {
    bpred_.update(pc, taken);
  }
}

int Core::forwarding_state(std::size_t rob_offset, std::uint64_t addr) const {
  // Walk younger -> older from just before the load: the youngest older
  // store to the same word determines the outcome. Ring indices wrap
  // with a compare instead of a per-step modulo (rob_offset <= size, so
  // head + offset < 2 * size).
  const std::size_t rob_size = rob_.size();
  std::size_t idx = rob_head_ + rob_offset;
  if (idx >= rob_size) idx -= rob_size;
  for (std::size_t j = rob_offset; j-- > 0;) {
    idx = idx == 0 ? rob_size - 1 : idx - 1;
    const RobEntry& e = rob_[idx];
    if (e.cls == OpClass::kStore && e.mem_addr == addr) {
      return e.issued ? 1 : -1;
    }
  }
  return 0;
}

bool Core::mshr_available() const {
  if (cfg_.mshr_entries <= 0) return true;
  std::erase_if(mshrs_, [this](std::int64_t r) { return r <= now_; });
  return static_cast<int>(mshrs_.size()) < cfg_.mshr_entries;
}

std::int64_t Core::mshr_min_release() const {
  // Only meaningful right after mshr_available() returned false, so all
  // outstanding release times are > now_.
  std::int64_t m = std::numeric_limits<std::int64_t>::max();
  for (std::int64_t r : mshrs_) m = std::min(m, r);
  return m;
}

void Core::mshr_allocate(std::int64_t release_cycle) {
  if (cfg_.mshr_entries > 0) mshrs_.push_back(release_cycle);
}

void Core::set_frequency(double hz) {
  if (hz <= 0.0) throw std::invalid_argument("frequency must be positive");
  const double cycles = cfg_.memory_latency_ns * 1e-9 * hz;
  memory_latency_cycles_ = std::max(1, static_cast<int>(std::ceil(cycles)));
}

ActivityFrame Core::take_interval_activity() {
  ActivityFrame out = interval_;
  interval_.clear();
  return out;
}

int Core::queue_class(OpClass cls) const {
  switch (cls) {
    case OpClass::kIntAlu:
    case OpClass::kIntMul:
    case OpClass::kBranch:
      return 0;
    case OpClass::kFpAdd:
    case OpClass::kFpMul:
      return 1;
    case OpClass::kLoad:
    case OpClass::kStore:
      return 2;
  }
  return 0;
}

Core::RobEntry& Core::rob_at_seq(std::uint64_t seq) {
  assert(seq >= head_seq_ && seq - head_seq_ < rob_count_);
  std::size_t idx = rob_head_ + static_cast<std::size_t>(seq - head_seq_);
  if (idx >= rob_.size()) idx -= rob_.size();
  return rob_[idx];
}

const Core::RobEntry& Core::rob_at_seq(std::uint64_t seq) const {
  assert(seq >= head_seq_ && seq - head_seq_ < rob_count_);
  std::size_t idx = rob_head_ + static_cast<std::size_t>(seq - head_seq_);
  if (idx >= rob_.size()) idx -= rob_.size();
  return rob_[idx];
}

int Core::ifetch_latency(std::uint64_t pc) {
  interval_.add(BlockId::kICache);
  interval_.add(BlockId::kITB);
  int latency = 0;
  if (!itb_.access(pc)) latency += cfg_.tlb_miss_penalty;
  if (!icache_.access(pc)) {
    ++stats_.icache_misses;
    interval_.add(BlockId::kL2);
    interval_.add(BlockId::kL2Left, 0.5);
    interval_.add(BlockId::kL2Right, 0.5);
    if (l2_.access(pc)) {
      latency += cfg_.l2_hit_latency;
    } else {
      ++stats_.l2_misses;
      latency += memory_latency_cycles_;
    }
  }
  return latency;
}

int Core::load_store_latency(std::uint64_t addr) {
  interval_.add(BlockId::kDCache);
  interval_.add(BlockId::kDTB);
  int latency = cfg_.l1_hit_latency;
  if (!dtb_.access(addr)) latency += cfg_.tlb_miss_penalty;
  if (!dcache_.access(addr)) {
    ++stats_.dcache_misses;
    interval_.add(BlockId::kL2);
    interval_.add(BlockId::kL2Left, 0.5);
    interval_.add(BlockId::kL2Right, 0.5);
    if (l2_.access(addr)) {
      latency += cfg_.l2_hit_latency;
    } else {
      ++stats_.l2_misses;
      latency += memory_latency_cycles_;
    }
  }
  return latency;
}

void Core::do_fetch() {
  // Mispredict redirect: resume once the branch has resolved and the
  // front end has refilled.
  if (fetch_halted_) {
    if (redirect_cycle_ >= 0 && now_ >= redirect_cycle_) {
      fetch_halted_ = false;
      redirect_cycle_ = -1;
    } else {
      return;
    }
  }
  if (now_ < icache_ready_cycle_) return;  // I-cache miss pending

  // Duty-cycled fetch gating (evenly striped).
  if (gate_fraction_ > 0.0) {
    gate_accumulator_ += gate_fraction_;
    if (gate_accumulator_ >= 1.0) {
      gate_accumulator_ -= 1.0;
      ++stats_.fetch_gated_cycles;
      return;
    }
  }

  if (static_cast<int>(frontend_count_) >= cfg_.frontend_entries) return;

  bool accessed_icache = false;
  for (int i = 0; i < cfg_.fetch_width &&
                  static_cast<int>(frontend_count_) < cfg_.frontend_entries;
       ++i) {
    MicroOp op;
    if (has_pending_op_) {
      // The op whose I-fetch missed; its line has arrived by now.
      op = pending_op_;
      has_pending_op_ = false;
      accessed_icache = true;
    } else {
      op = trace_->next();
    }
    if (!accessed_icache) {
      // One I-cache/ITB access per fetch group.
      const int miss_latency = ifetch_latency(op.pc);
      accessed_icache = true;
      if (miss_latency > 0) {
        // Miss: nothing fetched this cycle; retry once the line arrives.
        icache_ready_cycle_ = now_ + miss_latency;
        pending_op_ = op;
        has_pending_op_ = true;
        return;
      }
    }
    ++stats_.fetched;

    bool stop_after = false;
    bool mispredicted = false;
    if (op.cls == OpClass::kBranch) {
      ++stats_.branches;
      interval_.add(BlockId::kBPred);
      const bool predicted = predict_branch(op.pc);
      update_predictor(op.pc, op.branch_taken);
      if (predicted != op.branch_taken) {
        ++stats_.mispredicts;
        mispredicted = true;
        stop_after = true;  // fetch halts until the branch resolves
      } else if (op.branch_taken) {
        stop_after = true;  // taken-branch fetch break
      }
    }
    std::size_t tail = frontend_head_ + frontend_count_;
    if (tail >= frontend_.size()) tail -= frontend_.size();
    frontend_[tail] = {op, mispredicted};
    ++frontend_count_;
    if (mispredicted) {
      fetch_halted_ = true;
      redirect_cycle_ = -1;
    }
    if (stop_after) break;
  }
}

void Core::do_rename() {
  const std::size_t rob_size = rob_.size();
  const std::size_t fe_size = frontend_.size();
  for (int i = 0; i < cfg_.rename_width && frontend_count_ > 0; ++i) {
    if (rob_count_ >= rob_size) break;
    const FrontendOp& fop = frontend_[frontend_head_];
    const int qc = queue_class(fop.op.cls);
    const int cap = qc == 0   ? cfg_.int_queue_entries
                    : qc == 1 ? cfg_.fp_queue_entries
                              : cfg_.ls_queue_entries;
    if (queue_count_[qc] >= cap) break;

    std::size_t tail = rob_head_ + rob_count_;
    if (tail >= rob_size) tail -= rob_size;
    RobEntry& e = rob_[tail];
    e.cls = fop.op.cls;
    e.num_srcs = fop.op.num_srcs;
    e.seq = next_seq_;
    e.mem_addr = fop.op.mem_addr;
    e.issued = false;
    e.done_cycle = 0;
    e.mispredicted = fop.mispredicted;
    slot_state_[tail] = kSlotBlocked;
    assert(consumer_head_[tail] == -1);  // emptied when the slot issued
    scan_mask_[tail >> 6] |= std::uint64_t{1} << (tail & 63);
    // A fresh entry may be issuable immediately: cancel any issue-scan
    // sleep so the next do_issue looks at it.
    issue_wake_cycle_ = 0;
    // Producers that predate the trace (distance beyond the first
    // instruction) are treated as always ready: keep only in-range ones.
    int kept = 0;
    for (int s = 0; s < fop.op.num_srcs; ++s) {
      const auto dist = static_cast<std::uint64_t>(fop.op.src_dist[s]);
      if (dist <= next_seq_) e.src_seq[kept++] = next_seq_ - dist;
    }
    e.num_srcs = static_cast<std::uint8_t>(kept);
    ++next_seq_;
    ++rob_count_;
    ++queue_count_[qc];
    // `fop` aliases the ring's front slot: account for it before popping.
    interval_.add(is_fp(fop.op.cls) ? BlockId::kFPMap : BlockId::kIntMap);
    if (++frontend_head_ == fe_size) frontend_head_ = 0;
    --frontend_count_;
  }
}

void Core::do_issue() {
  // Local-toggling support: gate the whole issue stage on a duty cycle.
  if (issue_gate_fraction_ > 0.0) {
    issue_gate_accumulator_ += issue_gate_fraction_;
    if (issue_gate_accumulator_ >= 1.0) {
      issue_gate_accumulator_ -= 1.0;
      return;
    }
  }
  // Issue-scan sleep: a previous scan proved nothing can issue before
  // this cycle (rename cancels the sleep when it dispatches an entry).
  // The skipped scans are side-effect-free no-ops, so skipping them is
  // invisible in the simulated results.
  if (now_ < issue_wake_cycle_) return;

  // Unissued entries in flight == total issue-queue occupancy.
  if (queue_count_[0] + queue_count_[1] + queue_count_[2] == 0) return;

  const std::size_t rob_size = rob_.size();

  // Wake-time bookkeeping for the sleep above: the earliest future cycle
  // at which any scanned entry could become issuable, and whether any
  // rejection had a cause (functional-unit limits) the wake time cannot
  // bound. Entries parked on a consumer list need no wake entry: their
  // producer is older, so it is scanned earlier (or parked behind a
  // still-older producer) and either issued (no sleep) or contributed
  // its own wake time — inductively down to the oldest unissued entry,
  // which is always on the scan set because its sources are all issued
  // or committed.
  std::int64_t wake = std::numeric_limits<std::int64_t>::max();
  bool fu_limited = false;

  const int issue_width = cfg_.issue_width;
  int issued_total = 0;
  int alu_used = 0;
  int mul_used = 0;
  int fpadd_used = 0;
  int fpmul_used = 0;
  int mem_used = 0;

  // Examine one scan-set entry; returns true when it issued (and so may
  // have re-inserted parked consumers into the scan set).
  auto visit = [&](std::size_t cur) -> bool {
    std::int64_t st = slot_state_[cur];
    assert(st != kSlotIssued);  // issued slots are never on the scan set
    if (st == kSlotBlocked) {
      // Resolve readiness: once every producer has issued, the earliest-
      // ready cycle is fixed (committed producers were ready before now_
      // and contribute nothing). Identical truth value to the old
      // per-source source_ready() conjunction.
      const RobEntry& e = rob_[cur];
      std::int64_t rc = 0;
      std::size_t block_pidx = rob_size;
      for (int s = 0; s < e.num_srcs; ++s) {
        const std::uint64_t ss = e.src_seq[s];
        if (ss < head_seq_) continue;  // producer already committed
        std::size_t pidx =
            rob_head_ + static_cast<std::size_t>(ss - head_seq_);
        if (pidx >= rob_size) pidx -= rob_size;
        if (!rob_[pidx].issued) {
          block_pidx = pidx;
          break;
        }
        rc = std::max(rc, rob_[pidx].done_cycle);
      }
      if (block_pidx != rob_size) {
        // Park on the unissued producer's consumer list, off the scan
        // set; the producer's issue re-inserts it — exactly when a full
        // scan could first observe it unblocked.
        consumer_next_[cur] = consumer_head_[block_pidx];
        consumer_head_[block_pidx] = static_cast<std::int32_t>(cur);
        scan_mask_[cur >> 6] &= ~(std::uint64_t{1} << (cur & 63));
        return false;
      }
      slot_state_[cur] = st = rc;
    }
    if (st > now_) {
      wake = std::min(wake, st);
      return false;
    }

    RobEntry& e = rob_[cur];
    // Age offset of this entry (distance from the ROB head slot).
    const std::size_t k =
        cur >= rob_head_ ? cur - rob_head_ : cur + rob_size - rob_head_;

    // Functional-unit availability (checked after readiness: both must
    // hold for an issue, so the order is behaviour-neutral, and the
    // readiness reject is by far the more common one).
    bool fu_ok = false;
    switch (e.cls) {
      case OpClass::kIntAlu:
      case OpClass::kBranch:
        fu_ok = alu_used < cfg_.int_alu_units;
        break;
      case OpClass::kIntMul:
        fu_ok = mul_used < cfg_.int_mul_units;
        break;
      case OpClass::kFpAdd:
        fu_ok = fpadd_used < cfg_.fp_add_units;
        break;
      case OpClass::kFpMul:
        fu_ok = fpmul_used < cfg_.fp_mul_units;
        break;
      case OpClass::kLoad:
      case OpClass::kStore:
        fu_ok = mem_used < cfg_.mem_ports;
        break;
    }
    if (!fu_ok) {
      fu_limited = true;
      return false;
    }

    // Issue.
    int latency = 0;
    switch (e.cls) {
      case OpClass::kIntAlu:
        latency = cfg_.int_alu_latency;
        ++alu_used;
        interval_.add(BlockId::kIntExec);
        interval_.add(BlockId::kIntReg, e.num_srcs + 1.0);
        break;
      case OpClass::kBranch:
        latency = cfg_.int_alu_latency;
        ++alu_used;
        interval_.add(BlockId::kIntExec);
        interval_.add(BlockId::kIntReg, e.num_srcs);
        break;
      case OpClass::kIntMul:
        latency = cfg_.int_mul_latency;
        ++mul_used;
        interval_.add(BlockId::kIntExec);
        interval_.add(BlockId::kIntReg, e.num_srcs + 1.0);
        break;
      case OpClass::kFpAdd:
        latency = cfg_.fp_add_latency;
        ++fpadd_used;
        interval_.add(BlockId::kFPAdd);
        interval_.add(BlockId::kFPReg, e.num_srcs + 1.0);
        break;
      case OpClass::kFpMul:
        latency = cfg_.fp_mul_latency;
        ++fpmul_used;
        interval_.add(BlockId::kFPMul);
        interval_.add(BlockId::kFPReg, e.num_srcs + 1.0);
        break;
      case OpClass::kLoad: {
        bool forwarded = false;
        if (cfg_.store_forwarding) {
          const int fwd = forwarding_state(k, e.mem_addr);
          if (fwd < 0) return false;  // older store address unresolved: wait
          if (fwd > 0) {
            latency = 1;  // store-to-load forwarding from the store queue
            forwarded = true;
          }
        }
        if (!forwarded) {
          const bool l1_hit = dcache_.probe(e.mem_addr);
          if (!l1_hit && !mshr_available()) {  // structural stall
            wake = std::min(wake, mshr_min_release());
            return false;
          }
          latency = load_store_latency(e.mem_addr);
          if (!l1_hit) mshr_allocate(now_ + latency);
        }
        ++mem_used;
        interval_.add(BlockId::kLdStQ);
        interval_.add(BlockId::kIntReg, e.num_srcs + 1.0);
        break;
      }
      case OpClass::kStore: {
        // Address generation; data drains from the store queue post-commit.
        const bool l1_hit = dcache_.probe(e.mem_addr);
        if (!l1_hit && !mshr_available()) {  // structural stall
          wake = std::min(wake, mshr_min_release());
          return false;
        }
        const int fill = load_store_latency(e.mem_addr);
        if (!l1_hit) mshr_allocate(now_ + fill);
        latency = cfg_.int_alu_latency;
        ++mem_used;
        interval_.add(BlockId::kLdStQ);
        interval_.add(BlockId::kIntReg, e.num_srcs);
        break;
      }
    }
    const int qc = queue_class(e.cls);
    --queue_count_[qc];
    interval_.add(qc == 0   ? BlockId::kIntQ
                  : qc == 1 ? BlockId::kFPQ
                            : BlockId::kLdStQ);
    e.issued = true;
    slot_state_[cur] = kSlotIssued;
    scan_mask_[cur >> 6] &= ~(std::uint64_t{1} << (cur & 63));
    e.done_cycle = now_ + latency;
    ++issued_total;

    // Wake parked consumers: back onto the scan set (still kSlotBlocked,
    // so their next visit re-resolves against all sources). Consumers
    // are strictly younger, so they land at later traversal positions
    // and this scan still reaches them — matching the old full scan,
    // where an entry whose producer issued earlier in the same pass
    // resolved in that same pass.
    for (std::int32_t c = consumer_head_[cur]; c >= 0;) {
      const std::int32_t nc = consumer_next_[c];
      scan_mask_[static_cast<std::size_t>(c) >> 6] |=
          std::uint64_t{1} << (c & 63);
      c = nc;
    }
    consumer_head_[cur] = -1;

    if (e.cls == OpClass::kBranch && e.mispredicted) {
      redirect_cycle_ = e.done_cycle + cfg_.mispredict_penalty;
    }
    return true;
  };

  // Age-ordered traversal of the scan set: the live ROB region
  // [rob_head_, rob_head_ + rob_count_) as up to two linear slot spans
  // (slot order within a span IS age order, and every slot of the
  // wrapped span is younger than the whole first span). Only live
  // unissued unparked slots ever have their bit set, so whole words can
  // be consumed after masking the span edges.
  auto scan_span = [&](std::size_t lo, std::size_t hi) {
    std::size_t wi = lo >> 6;
    const std::size_t wlast = (hi - 1) >> 6;
    std::uint64_t lo_mask = ~std::uint64_t{0} << (lo & 63);
    for (; wi <= wlast; ++wi) {
      const std::uint64_t hi_mask =
          (wi == wlast && (hi & 63) != 0)
              ? ~std::uint64_t{0} >> (64 - (hi & 63))
              : ~std::uint64_t{0};
      const std::uint64_t span_mask = lo_mask & hi_mask;
      lo_mask = ~std::uint64_t{0};
      std::uint64_t w = scan_mask_[wi] & span_mask;
      while (w != 0) {
        const int b = std::countr_zero(w);
        w &= w - 1;
        if (visit((wi << 6) + static_cast<std::size_t>(b))) {
          if (issued_total >= issue_width) return true;
          // The issue may have re-inserted consumers anywhere ahead;
          // re-read this word's not-yet-visited remainder (later words
          // are re-read when reached).
          w = scan_mask_[wi] & span_mask & (~std::uint64_t{0} << b << 1);
        }
      }
    }
    return false;
  };

  const std::size_t tail = rob_head_ + rob_count_;
  const bool width_full = scan_span(rob_head_, std::min(tail, rob_size));
  if (!width_full && tail > rob_size) scan_span(0, tail - rob_size);

  // Nothing issued and every rejection has a bounded wake time: sleep
  // until the earliest of them. Issue events (which could unblock
  // dependents) cannot happen before then, and rename cancels the sleep
  // when it dispatches fresh entries.
  if (issued_total == 0 && !fu_limited && wake > now_ &&
      wake != std::numeric_limits<std::int64_t>::max()) {
    issue_wake_cycle_ = wake;
  }
}

void Core::do_commit() {
  const std::size_t rob_size = rob_.size();
  for (int i = 0; i < cfg_.commit_width && rob_count_ > 0; ++i) {
    const RobEntry& head = rob_[rob_head_];
    if (!head.issued || head.done_cycle > now_) break;
    if (++rob_head_ == rob_size) rob_head_ = 0;
    --rob_count_;
    ++head_seq_;
    ++stats_.committed;
  }
}

void Core::cycle() {
  do_commit();
  do_issue();
  do_rename();
  do_fetch();
  ++now_;
  ++stats_.cycles;
  interval_.cycles += 1.0;
  interval_.clocked_cycles += 1.0;
}

void Core::idle_cycle(bool clocked) {
  ++now_;
  ++stats_.cycles;
  interval_.cycles += 1.0;
  if (clocked) interval_.clocked_cycles += 1.0;
}

void Core::flush_pipeline() {
  // Front end: drop buffered ops, any pending missed I-fetch, and any
  // outstanding mispredict redirect — the squashed thread owns them all.
  frontend_head_ = 0;
  frontend_count_ = 0;
  fetch_halted_ = false;
  redirect_cycle_ = -1;
  icache_ready_cycle_ = 0;
  has_pending_op_ = false;
  // ROB and issue machinery: advancing head_seq_ to next_seq_ makes every
  // squashed seq read as already-committed, which is exactly how do_issue
  // treats producers outside the ROB (ss < head_seq_ -> ready).
  rob_head_ = 0;
  rob_count_ = 0;
  head_seq_ = next_seq_;
  std::fill(slot_state_.begin(), slot_state_.end(), kSlotIssued);
  std::fill(scan_mask_.begin(), scan_mask_.end(), std::uint64_t{0});
  std::fill(consumer_head_.begin(), consumer_head_.end(), -1);
  std::fill(consumer_next_.begin(), consumer_next_.end(), -1);
  queue_count_[0] = queue_count_[1] = queue_count_[2] = 0;
  mshrs_.clear();
  issue_wake_cycle_ = 0;  // the next dispatched entry may be ready at once
}

void Core::idle_cycles(std::uint64_t n, bool clocked) {
  // Bit-identical to n x idle_cycle(clocked): the counters are integers
  // or integer-valued doubles (exact below 2^53), so adding n once gives
  // the same bits as adding 1.0 n times.
  now_ += static_cast<std::int64_t>(n);
  stats_.cycles += n;
  interval_.cycles += static_cast<double>(n);
  if (clocked) interval_.clocked_cycles += static_cast<double>(n);
}

}  // namespace hydra::arch
