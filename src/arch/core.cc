#include "arch/core.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace hydra::arch {

using floorplan::BlockId;

Core::Core(const CoreConfig& cfg, TraceSource& trace)
    : cfg_(cfg),
      trace_(&trace),
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
  } else {
    gshare_.emplace(cfg_.bpred_index_bits, cfg_.bpred_history_bits);
  }
  queue_cap_[0] = cfg_.int_queue_entries;
  queue_cap_[1] = cfg_.fp_queue_entries;
  queue_cap_[2] = cfg_.ls_queue_entries;
  rob_.resize(static_cast<std::size_t>(cfg_.rob_entries));
  slot_state_.assign(rob_.size(), kSlotIssued);
  scan_mask_.assign((rob_.size() + 63) / 64, 0);
  consumer_head_.assign(rob_.size(), -1);
  consumer_next_.assign(rob_.size(), -1);
  wheel_.assign(static_cast<std::size_t>(kWheelCycles) * scan_mask_.size(), 0);
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
  return tournament_ ? tournament_->predict(pc) : gshare_->predict(pc);
}

void Core::update_predictor(std::uint64_t pc, bool taken) {
  if (tournament_) {
    tournament_->update(pc, taken);
  } else {
    gshare_->update(pc, taken);
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

void Core::mshr_allocate(std::int64_t release_cycle) {
  if (cfg_.mshr_entries > 0) mshrs_.push_back(release_cycle);
}

void Core::set_frequency(double hz) {
  if (hz <= 0.0) throw std::invalid_argument("frequency must be positive");
  const double cycles = cfg_.memory_latency_ns * 1e-9 * hz;
  memory_latency_cycles_ = std::max(1, static_cast<int>(std::ceil(cycles)));
}

ActivityFrame Core::interval_activity() const {
  // Exact: the counts are integers below 2^53 and halving is exact.
  ActivityFrame out;
  for (std::size_t i = 0; i < out.events.size(); ++i) {
    out.events[i] = static_cast<double>(half_events_[i]) * 0.5;
  }
  out.cycles = static_cast<double>(interval_cycles_);
  out.clocked_cycles = static_cast<double>(interval_clocked_cycles_);
  return out;
}

ActivityFrame Core::take_interval_activity() {
  const ActivityFrame out = interval_activity();
  half_events_.fill(0);
  interval_cycles_ = 0;
  interval_clocked_cycles_ = 0;
  return out;
}

namespace {

/// Issue queue of each OpClass (0 = int, 1 = fp, 2 = ls), by enum value.
constexpr int kQueueClass[kNumOpClasses] = {0, 0, 1, 1, 2, 2, 0};

int queue_class(OpClass cls) {
  return kQueueClass[static_cast<std::size_t>(cls)];
}

}  // namespace

int Core::ifetch_latency(std::uint64_t pc) {
  count(BlockId::kICache);
  count(BlockId::kITB);
  int latency = 0;
  if (!itb_.access(pc)) latency += cfg_.tlb_miss_penalty;
  if (!icache_.access(pc)) {
    ++stats_.icache_misses;
    count(BlockId::kL2);
    count(BlockId::kL2Left, 1);
    count(BlockId::kL2Right, 1);
    if (l2_.access(pc)) {
      latency += cfg_.l2_hit_latency;
    } else {
      ++stats_.l2_misses;
      latency += memory_latency_cycles_;
    }
  }
  return latency;
}

int Core::data_access(std::uint64_t addr) {
  const Cache::Lookup l1 = dcache_.find(addr);
  if (!l1.hit() && !mshr_available()) return -1;
  count(BlockId::kDCache);
  count(BlockId::kDTB);
  int latency = cfg_.l1_hit_latency;
  if (!dtb_.access(addr)) latency += cfg_.tlb_miss_penalty;
  if (!dcache_.touch(l1)) {
    ++stats_.dcache_misses;
    count(BlockId::kL2);
    count(BlockId::kL2Left, 1);
    count(BlockId::kL2Right, 1);
    if (l2_.access(addr)) {
      latency += cfg_.l2_hit_latency;
    } else {
      ++stats_.l2_misses;
      latency += memory_latency_cycles_;
    }
    mshr_allocate(now_ + latency);
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
      count(BlockId::kBPred);
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
    // Field by field: an aggregate assignment here compiled to byte
    // stores into a stack temporary read back by wider loads, a
    // store-forwarding stall on every fetched op.
    FrontendOp& slot = frontend_[tail];
    slot.cls = op.cls;
    slot.num_srcs = op.num_srcs;
    slot.mispredicted = mispredicted;
    slot.src_dist[0] = op.src_dist[0];
    slot.src_dist[1] = op.src_dist[1];
    slot.mem_addr = op.mem_addr;
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
    const int qc = queue_class(fop.cls);
    if (queue_count_[qc] >= queue_cap_[qc]) break;

    std::size_t tail = rob_head_ + rob_count_;
    if (tail >= rob_size) tail -= rob_size;
    RobEntry& e = rob_[tail];
    e.cls = fop.cls;
    e.seq = next_seq_;
    e.mem_addr = fop.mem_addr;
    e.issued = false;
    e.done_cycle = 0;
    e.mispredicted = fop.mispredicted;
    assert(consumer_head_[tail] == -1);  // emptied when the slot issued
    // Producers that predate the trace (distance beyond the first
    // instruction) are treated as always ready: keep only in-range ones.
    int kept = 0;
    for (int s = 0; s < fop.num_srcs; ++s) {
      const auto dist = static_cast<std::uint64_t>(fop.src_dist[s]);
      if (dist <= next_seq_) e.src_seq[kept++] = next_seq_ - dist;
    }
    e.num_srcs = static_cast<std::uint8_t>(kept);
    ++next_seq_;
    ++rob_count_;
    ++queue_count_[qc];
    place(tail);
    // `fop` aliases the ring's front slot: account for it before popping.
    count(is_fp(fop.cls) ? BlockId::kFPMap : BlockId::kIntMap);
    if (++frontend_head_ == fe_size) frontend_head_ = 0;
    --frontend_count_;
  }
}

void Core::place(std::size_t cur) {
  const std::size_t rob_size = rob_.size();
  const RobEntry& e = rob_[cur];
  // Once every producer has issued, the earliest-ready cycle is fixed
  // (committed producers were ready before now_ and contribute nothing).
  std::int64_t ready = 0;
  for (int s = 0; s < e.num_srcs; ++s) {
    const std::uint64_t ss = e.src_seq[s];
    if (ss < head_seq_) continue;  // producer already committed
    std::size_t pidx = rob_head_ + static_cast<std::size_t>(ss - head_seq_);
    if (pidx >= rob_size) pidx -= rob_size;
    if (!rob_[pidx].issued) {
      slot_state_[cur] = kSlotBlocked;
      consumer_next_[cur] = consumer_head_[pidx];
      consumer_head_[pidx] = static_cast<std::int32_t>(cur);
      return;
    }
    ready = std::max(ready, rob_[pidx].done_cycle);
  }
  slot_state_[cur] = ready;
  if (ready > now_ && ready - now_ < kWheelCycles) {
    wheel_insert(cur, ready);
  } else {
    set_scan(cur);
  }
}

void Core::drain_wheel() {
  // After kWheelCycles or more undrained cycles (idle spans) every bucket
  // is due. Draining one early is harmless: the scan re-wheels an entry
  // it meets before its ready cycle.
  const std::int64_t due = std::min(now_ + 1 - wheel_cycle_, kWheelCycles);
  const std::size_t words = scan_mask_.size();
  for (std::int64_t c = now_ + 1 - due; c <= now_; ++c) {
    std::uint64_t* bucket =
        &wheel_[static_cast<std::size_t>(c & (kWheelCycles - 1)) * words];
    for (std::size_t w = 0; w < words; ++w) {
      scan_mask_[w] |= bucket[w];
      bucket[w] = 0;
    }
  }
  wheel_cycle_ = now_ + 1;
}

void Core::do_issue() {
  // Due wheel buckets first, so cycles the gate or an idle span skipped
  // are caught up before any scan.
  drain_wheel();
  // Local-toggling support: gate the whole issue stage on a duty cycle.
  if (issue_gate_fraction_ > 0.0) {
    issue_gate_accumulator_ += issue_gate_fraction_;
    if (issue_gate_accumulator_ >= 1.0) {
      issue_gate_accumulator_ -= 1.0;
      return;
    }
  }
  // Unissued entries in flight == total issue-queue occupancy.
  if (queue_count_[0] + queue_count_[1] + queue_count_[2] == 0) return;

  const std::size_t rob_size = rob_.size();
  const int issue_width = cfg_.issue_width;
  int issued_total = 0;
  int alu_used = 0;
  int mul_used = 0;
  int fpadd_used = 0;
  int fpmul_used = 0;
  int mem_used = 0;

  // Age-ordered traversal of the scan set: the live ROB region
  // [rob_head_, rob_head_ + rob_count_) as up to two linear slot spans
  // (slot order within a span IS age order, and every slot of the
  // wrapped span is younger than the whole first span). Only live
  // unissued slots ever have their bit set, so whole words can be
  // consumed after masking the span edges.
  const std::size_t tail = rob_head_ + rob_count_;
  const std::size_t spans[2][2] = {
      {rob_head_, std::min(tail, rob_size)},
      {0, tail > rob_size ? tail - rob_size : 0}};
  for (const auto& span : spans) {
    const std::size_t lo = span[0];
    const std::size_t hi = span[1];
    if (lo >= hi) continue;
    const std::size_t wlast = (hi - 1) >> 6;
    std::uint64_t lo_mask = ~std::uint64_t{0} << (lo & 63);
    for (std::size_t wi = lo >> 6; wi <= wlast; ++wi) {
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
        const std::size_t cur = (wi << 6) + static_cast<std::size_t>(b);
        const std::int64_t ready = slot_state_[cur];
        assert(ready >= 0 && ready != kSlotIssued);  // never on the scan set
        if (ready > now_) {
          // Beyond the wheel's reach when placed, or drained early.
          if (ready - now_ < kWheelCycles) {
            clear_scan(cur);
            wheel_insert(cur, ready);
          }
          continue;
        }

        RobEntry& e = rob_[cur];
        // Functional-unit availability (checked after readiness: both
        // must hold for an issue, so the order is behaviour-neutral).
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
        if (!fu_ok) continue;

        // Issue. Register-file activity counts in half-events (count()).
        const auto srcs = static_cast<std::uint64_t>(e.num_srcs);
        int latency = 0;
        switch (e.cls) {
          case OpClass::kIntAlu:
            latency = cfg_.int_alu_latency;
            ++alu_used;
            count(BlockId::kIntExec);
            count(BlockId::kIntReg, 2 * (srcs + 1));
            break;
          case OpClass::kBranch:
            latency = cfg_.int_alu_latency;
            ++alu_used;
            count(BlockId::kIntExec);
            count(BlockId::kIntReg, 2 * srcs);
            break;
          case OpClass::kIntMul:
            latency = cfg_.int_mul_latency;
            ++mul_used;
            count(BlockId::kIntExec);
            count(BlockId::kIntReg, 2 * (srcs + 1));
            break;
          case OpClass::kFpAdd:
            latency = cfg_.fp_add_latency;
            ++fpadd_used;
            count(BlockId::kFPAdd);
            count(BlockId::kFPReg, 2 * (srcs + 1));
            break;
          case OpClass::kFpMul:
            latency = cfg_.fp_mul_latency;
            ++fpmul_used;
            count(BlockId::kFPMul);
            count(BlockId::kFPReg, 2 * (srcs + 1));
            break;
          case OpClass::kLoad: {
            bool forwarded = false;
            if (cfg_.store_forwarding) {
              // Age offset of this entry from the ROB head slot.
              const std::size_t k = cur >= rob_head_
                                        ? cur - rob_head_
                                        : cur + rob_size - rob_head_;
              const int fwd = forwarding_state(k, e.mem_addr);
              if (fwd < 0) continue;  // older store address unresolved
              if (fwd > 0) {
                latency = 1;  // store-to-load forwarding from the store queue
                forwarded = true;
              }
            }
            if (!forwarded) {
              latency = data_access(e.mem_addr);
              if (latency < 0) continue;  // structural: no free MSHR
            }
            ++mem_used;
            count(BlockId::kLdStQ);
            count(BlockId::kIntReg, 2 * (srcs + 1));
            break;
          }
          case OpClass::kStore: {
            // Address generation; data drains from the store queue
            // post-commit.
            if (data_access(e.mem_addr) < 0) continue;  // no free MSHR
            latency = cfg_.int_alu_latency;
            ++mem_used;
            count(BlockId::kLdStQ);
            count(BlockId::kIntReg, 2 * srcs);
            break;
          }
        }
        const int qc = queue_class(e.cls);
        --queue_count_[qc];
        count(qc == 0   ? BlockId::kIntQ
              : qc == 1 ? BlockId::kFPQ
                        : BlockId::kLdStQ);
        e.issued = true;
        slot_state_[cur] = kSlotIssued;
        clear_scan(cur);
        e.done_cycle = now_ + latency;
        if (e.cls == OpClass::kBranch && e.mispredicted) {
          redirect_cycle_ = e.done_cycle + cfg_.mispredict_penalty;
        }

        // Re-place parked consumers. They are strictly younger, so one
        // ready this cycle (a zero latency) lands on the scan set ahead
        // of the traversal, as a scan of every entry would find it.
        for (std::int32_t c = consumer_head_[cur]; c >= 0;) {
          const std::int32_t nc = consumer_next_[c];
          place(static_cast<std::size_t>(c));
          c = nc;
        }
        consumer_head_[cur] = -1;

        if (++issued_total >= issue_width) return;
        // Re-read this word's not-yet-visited remainder (later words are
        // read when reached).
        w = scan_mask_[wi] & span_mask & (~std::uint64_t{0} << b << 1);
      }
    }
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
  ++interval_cycles_;
  ++interval_clocked_cycles_;
}

void Core::idle_cycle(bool clocked) {
  ++now_;
  ++stats_.cycles;
  ++interval_cycles_;
  if (clocked) ++interval_clocked_cycles_;
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
  std::fill(wheel_.begin(), wheel_.end(), std::uint64_t{0});
  queue_count_[0] = queue_count_[1] = queue_count_[2] = 0;
  mshrs_.clear();
}

void Core::idle_cycles(std::uint64_t n, bool clocked) {
  // Identical to n x idle_cycle(clocked): the counters are integers.
  now_ += static_cast<std::int64_t>(n);
  stats_.cycles += n;
  interval_cycles_ += n;
  if (clocked) interval_clocked_cycles_ += n;
}

}  // namespace hydra::arch
