#include "runtime/host.h"

#include <algorithm>
#include <utility>

#include "runtime/spark_cache.h"

namespace mitos::runtime {

namespace {

using dataflow::EdgeKind;
using dataflow::NodeKind;
using dataflow::ShuffleKey;

// Fixed CPU charge for open/close/finish bookkeeping, in units of
// per-element cost.
constexpr double kBookkeepingElements = 5.0;

// Bookkeeping charge for a bag instantiated from a step template: the
// bag-id resolution, input/output choice, and routing work is replayed
// from the cache, leaving only the validate-and-instantiate token.
constexpr double kTemplatedBookkeepingElements = 1.0;

// Hash-partitions a single typed column; `make` rebuilds each part
// (Chunk::OfInt64 / OfDouble).
template <typename T>
void PartitionColumn(const Chunk& chunk, const T* in,
                     Chunk (*make)(std::vector<T>), ChunkVector* parts) {
  const size_t par = parts->size();
  std::vector<std::vector<T>> cols(par);
  for (size_t i = 0; i < chunk.size(); ++i) {
    cols[chunk.HashAt(i) % par].push_back(in[i]);
  }
  for (size_t p = 0; p < par; ++p) {
    if (!cols[p].empty()) (*parts)[p] = make(std::move(cols[p]));
  }
}

// Hash-partitions a pair column: the shared int64 key column plus the value
// column `vals`; `make` rebuilds each part (Chunk::OfInt64Pairs /
// OfInt64Doubles).
template <typename V>
void PartitionPairs(const Chunk& chunk, const V* vals, bool by_key,
                    Chunk (*make)(std::vector<int64_t>, std::vector<V>),
                    ChunkVector* parts) {
  const size_t par = parts->size();
  std::vector<std::vector<int64_t>> keys(par);
  std::vector<std::vector<V>> values(par);
  const int64_t* ks = chunk.keys();
  for (size_t i = 0; i < chunk.size(); ++i) {
    const size_t p = (by_key ? chunk.HashField0At(i) : chunk.HashAt(i)) % par;
    keys[p].push_back(ks[i]);
    values[p].push_back(vals[i]);
  }
  for (size_t p = 0; p < par; ++p) {
    if (!keys[p].empty()) {
      (*parts)[p] = make(std::move(keys[p]), std::move(values[p]));
    }
  }
}

}  // namespace

BagOperatorHost::BagOperatorHost(RuntimeContext* ctx,
                                 const dataflow::LogicalNode* node,
                                 int instance, int machine,
                                 ControlFlowManager* cfm)
    : ctx_(ctx),
      node_(node),
      instance_(instance),
      machine_(machine),
      cfm_(cfm),
      out_edges_(ctx->graph().routing(node->id)) {
  kernel_ = dataflow::MakeOperator(*node, ctx->columnar());
}

bool BagOperatorHost::IsSpecial() const { return kernel_ == nullptr; }

double BagOperatorHost::PerElementCost() const {
  return ctx_->backend()->config().cpu_per_element * node_->cost_factor;
}

double BagOperatorHost::ChunkCost(const Chunk& chunk) const {
  const sim::ClusterConfig& config = ctx_->backend()->config();
  return (config.cpu_per_chunk +
          static_cast<double>(chunk.SerializedSize()) * config.cpu_per_byte) *
         node_->cost_factor;
}

void BagOperatorHost::Init() {
  const dataflow::LogicalGraph& graph = ctx_->graph();

  // Inputs with expected marker counts for this instance.
  inputs_.clear();
  for (const dataflow::EdgeRef& edge : node_->inputs) {
    InputState state;
    state.edge = edge;
    const dataflow::LogicalNode& from = graph.node(edge.from);
    state.producer_block = from.block;
    switch (edge.kind) {
      case EdgeKind::kForward:
        state.expected_markers = instance_ < from.parallelism ? 1 : 0;
        break;
      case EdgeKind::kShuffle:
        state.expected_markers = from.parallelism;
        break;
      case EdgeKind::kGather:
        state.expected_markers = instance_ == 0 ? from.parallelism : 0;
        break;
      case EdgeKind::kBroadcast:
        state.expected_markers = 1;
        break;
    }
    inputs_.push_back(std::move(state));
  }

  // Out-edges come pre-resolved from the graph's shared routing table
  // (bound in the constructor).

  cfm_->AddListener(
      [this](int pos, ir::BlockId block) { OnPathAppend(pos, block); });
  cfm_->AddCompletionListener([this] { OnPathComplete(); });
}

// ----- path events -----

void BagOperatorHost::OnPathAppend(int pos, ir::BlockId block) {
  if (ctx_->failed()) return;
  // Existing conditional sends first so a bag created at this position
  // does not react to its own creation.
  AdvancePendingSends(block);

  // Create the new output bag BEFORE the eviction scan: its input choices
  // take references that protect cached bags it still needs (a Φ created at
  // this occurrence may choose a bag this very occurrence supersedes).
  if (block == node_->block) {
    OnBlockOccurrence(pos);
  }

  // Cached input bags from this producer block are superseded by the new
  // occurrence (no future output bag will choose them; Sec. 5.2.3).
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i].producer_block != block) continue;
    for (auto& [len, entry] : inputs_[i].bags) {
      if (len < pos + 1) entry.superseded = true;
    }
    MaybeEvict(i);
  }

  TryFeed();
}

void BagOperatorHost::OnPathComplete() {
  if (ctx_->failed()) return;
  // No further block can occur: pending conditional sends are dead.
  for (PendingSend& ps : pending_sends_) {
    if (ps.state == PendingSend::State::kPending) {
      ps.state = PendingSend::State::kDropped;
      for (const Chunk& chunk : ps.buffered) {
        ctx_->TrackMemory(-static_cast<int64_t>(chunk.SerializedSize()));
      }
      ps.buffered.clear();
    }
  }
  // Entries for unfinished bags stay (as kDropped) so later emissions still
  // find their gating state and discard cleanly.
  pending_sends_.remove_if([](const PendingSend& ps) {
    return ps.bag_finished && (ps.done ||
                               ps.state == PendingSend::State::kDropped);
  });
}

int BagOperatorHost::ChooseInput(int i, int len) const {
  const InputState& input = inputs_[static_cast<size_t>(i)];
  int max_len = len;
  // A Φ input produced later in the Φ's own block refers to the *previous*
  // occurrence (the Φ conceptually executes at the top of its block).
  if (node_->kind == NodeKind::kPhi &&
      input.producer_block == node_->block) {
    max_len = len - 1;
  }
  return cfm_->LongestPrefixEndingWith(input.producer_block, max_len);
}

std::vector<int> BagOperatorHost::ComputeInputLengths(int len) const {
  std::vector<int> lens(inputs_.size());
  for (size_t i = 0; i < inputs_.size(); ++i) {
    lens[i] = ChooseInput(static_cast<int>(i), len);
  }
  return lens;
}

void BagOperatorHost::OnBlockOccurrence(int pos) {
  const int path_len = pos + 1;
  if (!ctx_->step_templates()) {
    CreateOutBag(path_len);
    return;
  }
  StepMeta meta;
  if (!cfm_->step_meta(pos, &meta)) {
    // Cannot happen from a path listener (the position is known by
    // definition); stay safe and take the slow path.
    CreateOutBag(path_len);
    return;
  }
  const int period = step_template_.period();
  if (step_template_.ReplayCandidate(pos, meta) &&
      cfm_->SegmentsEqual(pos - period + 1, pos - 2 * period + 1, period)) {
    // Validate-then-instantiate: the authority vouched for the step shape
    // (meta.replayable), the spacing matches, and the last two
    // period-length path segments are block-for-block equal — so the
    // cached input classification predicts exactly what the backward
    // scans would compute.
    std::vector<int> lens;
    step_template_.PredictLengths(&lens);
    if (ctx_->validate_templates()) {
      const std::vector<int> truth = ComputeInputLengths(path_len);
      if (truth != lens) {
        std::string detail;
        for (size_t i = 0; i < lens.size(); ++i) {
          detail += (i ? "," : "") + std::to_string(lens[i]) + "!=" +
                    std::to_string(truth[i]);
        }
        ctx_->Fail(Status::Internal(
            "step-template replay mismatch for " + node_->name + "[" +
            std::to_string(instance_) + "] at path length " +
            std::to_string(path_len) + " (predicted!=true: " + detail +
            ")"));
        return;
      }
    }
    step_template_.CommitReplay(pos);
    ctx_->CountTemplateHit(node_->id, instance_, path_len);
    if (obs::TraceRecorder* tr = ctx_->trace()) {
      tr->Instant(obs::MachinePid(machine_), TraceLane(), "template-replay",
                  "template", ctx_->backend()->now(),
                  {{"path_len", path_len},
                   {"period", period},
                   {"saved_cpu",
                    2 * (kBookkeepingElements - kTemplatedBookkeepingElements) *
                        PerElementCost()}});
    }
    CreateOutBagFromLengths(path_len, lens, /*templated=*/true);
    return;
  }
  ctx_->CountTemplateMiss();
  const std::vector<int> lens = ComputeInputLengths(path_len);
  step_template_.Observe(pos, meta, lens);
  CreateOutBagFromLengths(path_len, lens, /*templated=*/false);
}

void BagOperatorHost::CreateOutBag(int path_len) {
  CreateOutBagFromLengths(path_len, ComputeInputLengths(path_len),
                          /*templated=*/false);
}

void BagOperatorHost::CreateOutBagFromLengths(int path_len,
                                              const std::vector<int>& lens,
                                              bool templated) {
  OutBag bag;
  bag.path_len = path_len;
  bag.templated = templated;
  // Recovery replay: this bag's output survived a failed attempt, so the
  // kernel re-runs over the real data (reconstructing state exactly) but
  // charges no CPU and uses memory-speed I/O.
  bag.replay = ctx_->IsReplayBag(node_->id, instance_, path_len);
  size_t n = inputs_.size();
  bag.chosen.assign(n, 0);
  bag.fed.assign(n, 0);
  bag.closed.assign(n, false);
  bag.reuse.assign(n, false);

  if (node_->kind == NodeKind::kPhi) {
    // Select the single input whose matching prefix is longest — the
    // "latest assignment" in sequential semantics (Sec. 5.2.3).
    int best_input = -1;
    int best_len = 0;
    for (size_t i = 0; i < n; ++i) {
      if (lens[i] > best_len) {
        best_len = lens[i];
        best_input = static_cast<int>(i);
      }
    }
    if (best_input < 0) {
      ctx_->Fail(Status::Internal("Φ " + node_->name +
                                  " has no available input bag at path "
                                  "length " +
                                  std::to_string(path_len)));
      return;
    }
    bag.chosen[static_cast<size_t>(best_input)] = best_len;
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (lens[i] == 0) {
        ctx_->Fail(Status::Internal(
            "operator " + node_->name + " input " + std::to_string(i) +
            " has no available bag (definition should dominate use)"));
        return;
      }
      bag.chosen[i] = lens[i];
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (bag.chosen[i] > 0) {
      ++inputs_[i].bags[bag.chosen[i]].refs;  // creates entry if absent
    }
  }

  // Conditional-output gating entries exist from creation so that even
  // empty bags deliver their end-of-bag markers when the path triggers the
  // edge (Sec. 5.2.4).
  for (size_t e = 0; e < out_edges_.size(); ++e) {
    if (!out_edges_[e].conditional) continue;
    PendingSend ps;
    ps.bag_len = path_len;
    ps.edge_index = static_cast<int>(e);
    pending_sends_.push_back(std::move(ps));
  }

  out_bags_.push_back(std::move(bag));
}

// ----- processing -----

int BagOperatorHost::TraceLane() {
  if (trace_lane_ < 0) {
    trace_lane_ = ctx_->trace()->Lane(
        obs::MachinePid(machine_),
        "op:" + node_->name + "[" + std::to_string(instance_) + "]");
  }
  return trace_lane_;
}

void BagOperatorHost::EnqueueWork(double cpu_seconds, const char* phase,
                                  std::function<void()> action) {
  ctx_->ChargeOpCpu(node_->id, cpu_seconds);
  work_.push_back(WorkItem{cpu_seconds, phase, std::move(action)});
  Pump();
}

void BagOperatorHost::Pump() {
  if (busy_ || work_.empty() || ctx_->failed()) return;
  busy_ = true;
  WorkItem item = std::move(work_.front());
  work_.pop_front();
  auto action = std::make_shared<std::function<void()>>(
      std::move(item.action));
  // Label the core span with "<op>.<phase>" when tracing (the string is
  // only built on the traced path).
  std::string label;
  if (ctx_->trace() != nullptr && item.cpu > 0) {
    label = node_->name + "." + item.phase;
  }
  ctx_->backend()->ExecCpu(
      machine_, item.cpu,
      [this, action] {
        busy_ = false;
        ctx_->NoteProgress();
        if (!ctx_->failed()) (*action)();
        Pump();
      },
      std::move(label));
}

void BagOperatorHost::TryFeed() {
  if (ctx_->failed() || out_bags_.empty()) return;
  OutBag& bag = out_bags_.front();
  if (bag.finish_enqueued) return;

  if (!bag.opened) {
    bag.opened = true;
    bag.t_open = ctx_->backend()->now();
    // Loop-invariant hoisting (Sec. 5.3): reuse state when the chosen bag
    // id on a reusable input is unchanged since the previous output bag.
    if (kernel_ && ctx_->hoisting() && has_prev_) {
      for (size_t i = 0; i < inputs_.size(); ++i) {
        bag.reuse[i] = kernel_->CanReuseInput(static_cast<int>(i)) &&
                       bag.chosen[i] > 0 &&
                       prev_chosen_[i] == bag.chosen[i];
        if (bag.reuse[i]) {
          ctx_->CountReuse();
          if (obs::TraceRecorder* tr = ctx_->trace()) {
            // Build-side state kept across steps (Sec. 5.3).
            tr->Instant(obs::MachinePid(machine_), TraceLane(),
                        "hoisted-reuse", "hoisting", bag.t_open,
                        {{"input", static_cast<int>(i)},
                         {"bag_len", bag.chosen[i]}});
          }
        }
      }
    }
    std::vector<bool> reuse = bag.reuse;
    const double open_elements = bag.templated ? kTemplatedBookkeepingElements
                                               : kBookkeepingElements;
    EnqueueWork(bag.replay ? 0 : open_elements * PerElementCost(),
                "open", [this, reuse] {
      if (kernel_) {
        for (size_t i = 0; i < reuse.size(); ++i) {
          if (kernel_->CanReuseInput(static_cast<int>(i))) {
            kernel_->SetReuseInput(static_cast<int>(i), reuse[i]);
          }
        }
        kernel_->Open();
      } else {
        special_values_.clear();
        special_data_.clear();
      }
    });
  }

  const int blocking = kernel_ ? kernel_->BlockingInput() : -1;
  const int bag_len = bag.path_len;

  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (bag.closed[i]) continue;
    if (blocking >= 0 && static_cast<int>(i) != blocking &&
        !bag.closed[static_cast<size_t>(blocking)]) {
      continue;  // wait for the build side
    }
    if (bag.reuse[i] || bag.chosen[i] == 0) {
      bag.closed[i] = true;
      EnqueueWork(0, "close", [this, i, bag_len] {
        if (kernel_) {
          kernel_->Close(static_cast<int>(i), [this, bag_len](Chunk&& out) {
            EmitChunk(bag_len, std::move(out));
          });
        }
      });
      continue;
    }
    InputBagEntry& entry = inputs_[i].bags[bag.chosen[i]];
    const int chosen_len = bag.chosen[i];
    while (bag.fed[i] < entry.chunks.size()) {
      size_t idx = bag.fed[i]++;
      bag.elements_in += static_cast<int64_t>(entry.chunks[idx].size());
      // Per-chunk charging (amortized dispatch + payload bytes) instead of
      // the old per-element model.
      double cpu = bag.replay ? 0 : ChunkCost(entry.chunks[idx]);
      EnqueueWork(cpu, "push", [this, i, chosen_len, idx, bag_len] {
        const Chunk& chunk = inputs_[i].bags.at(chosen_len).chunks[idx];
        auto emit = [this, bag_len](Chunk&& out) {
          EmitChunk(bag_len, std::move(out));
        };
        if (kernel_) {
          kernel_->Push(static_cast<int>(i), chunk, emit);
        } else {
          SpecialPush(static_cast<int>(i), chunk);
        }
      });
    }
    if (entry.markers == inputs_[i].expected_markers &&
        bag.fed[i] == entry.chunks.size()) {
      bag.closed[i] = true;
      EnqueueWork(0, "close", [this, i, bag_len] {
        if (kernel_) {
          kernel_->Close(static_cast<int>(i), [this, bag_len](Chunk&& out) {
            EmitChunk(bag_len, std::move(out));
          });
        }
      });
    }
  }

  bool all_closed = true;
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (!bag.closed[i]) all_closed = false;
  }
  if (all_closed && !bag.finish_enqueued) {
    bag.finish_enqueued = true;
    EnqueueFinish(bag);
  }
}

void BagOperatorHost::EnqueueFinish(OutBag& bag) {
  const int bag_len = bag.path_len;
  double cpu = (bag.templated ? kTemplatedBookkeepingElements
                              : kBookkeepingElements) *
               PerElementCost();
  if (node_->kind == NodeKind::kBagLit) {
    cpu += static_cast<double>(node_->literal.size()) * PerElementCost();
  }
  if (bag.replay) cpu = 0;
  EnqueueWork(cpu, "finish", [this, bag_len] {
    if (kernel_) {
      kernel_->Finish([this, bag_len](Chunk&& out) {
        EmitChunk(bag_len, std::move(out));
      });
      FinalizeActiveBag();
    } else {
      SpecialFinish();
    }
  });
}

void BagOperatorHost::FlushShuffleBuffers(int bag_len) {
  for (size_t e = 0; e < out_edges_.size(); ++e) {
    auto it = shuffle_buffers_.find({bag_len, e});
    if (it == shuffle_buffers_.end()) continue;
    for (Chunk& chunk : it->second) {
      SendOnEdge(e, bag_len, std::move(chunk));
    }
    shuffle_buffers_.erase(it);
  }
}

void BagOperatorHost::FinalizeActiveBag() {
  if (out_bags_.empty()) {
    // A finish callback fired with no active bag — a host-protocol
    // violation; surface it instead of aborting the simulator.
    ctx_->Fail(Status::Internal(
        "operator " + node_->name + "[" + std::to_string(instance_) +
        "] finalized with no active output bag"));
    return;
  }
  OutBag& bag = out_bags_.front();
  const int bag_len = bag.path_len;

  if (ctx_->blocking_shuffles()) FlushShuffleBuffers(bag_len);

  for (size_t e = 0; e < out_edges_.size(); ++e) {
    if (!out_edges_[e].conditional) {
      SendMarkerOnEdge(e, bag_len);
      continue;
    }
    PendingSend* ps = FindPendingSend(bag_len, e);
    if (ps == nullptr) {
      ctx_->Fail(Status::Internal(
          "operator " + node_->name + "[" + std::to_string(instance_) +
          "] bag @" + std::to_string(bag_len) +
          " finished without gating state on conditional edge " +
          std::to_string(e)));
      return;
    }
    ps->bag_finished = true;
    if (ps->state == PendingSend::State::kSending) {
      SendMarkerOnEdge(e, bag_len);
      ps->done = true;
    }
  }
  pending_sends_.remove_if([](const PendingSend& ps) {
    return ps.bag_finished && (ps.done ||
                               ps.state == PendingSend::State::kDropped);
  });

  if (obs::TraceRecorder* tr = ctx_->trace()) {
    // One span per output bag, named by the paper's bag identifier
    // (operator × execution-path prefix length).
    tr->Span(obs::MachinePid(machine_), TraceLane(),
             node_->name + "@" + std::to_string(bag_len), "operator",
             bag.t_open, ctx_->backend()->now(),
             {{"elements_in", bag.elements_in}, {"path_len", bag_len}});
  }
  MITOS_VLOG(3) << node_->name << "[" << instance_ << "] finished bag @"
                << bag_len << " (" << bag.elements_in << " elements in)";
  prev_chosen_ = bag.chosen;
  has_prev_ = true;
  ctx_->CountBag(bag.elements_in);
  ctx_->OnBagFinished(node_->id, instance_, bag_len, bag.replay);
  ReleaseAndPop();
}

void BagOperatorHost::ReleaseAndPop() {
  OutBag& bag = out_bags_.front();
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (bag.chosen[i] > 0) {
      auto it = inputs_[i].bags.find(bag.chosen[i]);
      if (it == inputs_[i].bags.end()) {
        // The chosen input bag vanished while this bag still held a
        // reference — an eviction-accounting bug; fail with context.
        ctx_->Fail(Status::Internal(
            "operator " + node_->name + "[" + std::to_string(instance_) +
            "] released bag @" + std::to_string(bag.path_len) +
            " but its chosen input " + std::to_string(i) + " bag @" +
            std::to_string(bag.chosen[i]) + " was already evicted"));
        return;
      }
      --it->second.refs;
      MaybeEvict(i);
    }
  }
  out_bags_.pop_front();
  TryFeed();
}

void BagOperatorHost::MaybeEvict(size_t input_index) {
  if (!ctx_->discard_spent_bags()) return;
  auto& bags = inputs_[input_index].bags;
  for (auto it = bags.begin(); it != bags.end();) {
    if (it->second.superseded && it->second.refs == 0) {
      ctx_->TrackMemory(-it->second.bytes);
      it = bags.erase(it);
    } else {
      ++it;
    }
  }
}

// ----- deliveries -----

void BagOperatorHost::DeliverChunk(int input_index, int bag_len,
                                   Chunk chunk) {
  if (ctx_->failed()) return;
  ctx_->NoteProgress();
  ctx_->CountChunk(chunk.fallback());
  InputBagEntry& entry =
      inputs_[static_cast<size_t>(input_index)].bags[bag_len];
  int64_t bytes = static_cast<int64_t>(chunk.SerializedSize());
  entry.bytes += bytes;
  ctx_->TrackMemory(bytes);
  entry.chunks.push_back(std::move(chunk));
  TryFeed();
}

void BagOperatorHost::DeliverMarker(int input_index, int bag_len) {
  if (ctx_->failed()) return;
  ctx_->NoteProgress();
  InputBagEntry& entry =
      inputs_[static_cast<size_t>(input_index)].bags[bag_len];
  ++entry.markers;
  if (entry.markers >
      inputs_[static_cast<size_t>(input_index)].expected_markers) {
    // A producer double-counted an end-of-bag marker — a runtime protocol
    // violation, not a caller error; report it instead of aborting.
    ctx_->Fail(Status::Internal(
        node_->name + "[" + std::to_string(instance_) + "] input " +
        std::to_string(input_index) + " received " +
        std::to_string(entry.markers) + " markers for bag @" +
        std::to_string(bag_len) + ", expected at most " +
        std::to_string(
            inputs_[static_cast<size_t>(input_index)].expected_markers)));
    return;
  }
  TryFeed();
}

// ----- special (kernel-less) nodes -----

void BagOperatorHost::SpecialPush(int input, const Chunk& chunk) {
  switch (node_->kind) {
    case NodeKind::kCondition:
    case NodeKind::kReadFile:
      MITOS_CHECK_EQ(input, 0);
      chunk.AppendTo(&special_values_);
      break;
    case NodeKind::kWriteFile:
      if (input == 0) {
        chunk.AppendTo(&special_data_);
      } else {
        chunk.AppendTo(&special_values_);
      }
      break;
    default:
      MITOS_UNREACHABLE();
  }
}

void BagOperatorHost::SpecialFinish() {
  OutBag& bag = out_bags_.front();
  const int bag_len = bag.path_len;
  switch (node_->kind) {
    case NodeKind::kBagLit: {
      EmitChunk(bag_len, Chunk::OfDatums(node_->literal, ctx_->columnar()));
      FinalizeActiveBag();
      return;
    }
    case NodeKind::kCondition: {
      if (special_values_.size() != 1 || !special_values_[0].is_bool()) {
        ctx_->Fail(Status::InvalidArgument(
            "condition " + node_->name + " expected a one-element bool bag"
            ", got " + mitos::ToString(special_values_, 4)));
        return;
      }
      bool value = special_values_[0].boolean();
      ctx_->OnDecision(node_->block, bag_len, value, machine_);
      FinalizeActiveBag();
      return;
    }
    case NodeKind::kReadFile: {
      if (special_values_.size() != 1 || !special_values_[0].is_string()) {
        ctx_->Fail(Status::InvalidArgument(
            "readFile " + node_->name + " expected a one-element string "
            "filename bag, got " + mitos::ToString(special_values_, 4)));
        return;
      }
      StartFileRead(special_values_[0].str());
      return;
    }
    case NodeKind::kWriteFile: {
      FinishFileWrite();
      return;
    }
    default:
      MITOS_UNREACHABLE();
  }
}

void BagOperatorHost::StartFileRead(const std::string& filename) {
  StatusOr<DatumVector> data = ctx_->fs()->ReadPartition(
      filename, static_cast<size_t>(node_->parallelism),
      static_cast<size_t>(instance_));
  if (!data.ok()) {
    ctx_->Fail(data.status());
    return;
  }
  const int bag_len = out_bags_.front().path_len;
  const bool replay = out_bags_.front().replay;
  size_t bytes = std::max<size_t>(SerializedSize(*data), 1);
  size_t chunk_elements = ctx_->backend()->config().chunk_elements;
  // Columnarize the partition once, then cut zero-copy slices.
  Chunk all = Chunk::OfDatums(std::move(*data), ctx_->columnar());
  auto chunks = std::make_shared<ChunkVector>();
  for (size_t begin = 0; begin < all.size(); begin += chunk_elements) {
    size_t len = std::min(chunk_elements, all.size() - begin);
    chunks->push_back(all.Slice(begin, len));
  }
  if (chunks->empty()) chunks->emplace_back();  // empty partition
  int pieces = static_cast<int>(chunks->size());
  special_async_ = true;
  // Emit chunks at disk pace so downstream work overlaps with the read —
  // this is one of the two overlaps behind loop pipelining. In-memory
  // cached datasets (Spark RDD cache) read at memory speed.
  ctx_->backend()->DiskRead(
      machine_, bytes, pieces,
      [this, chunks, pieces, bag_len](int i) {
        if (ctx_->failed()) return;
        EmitChunk(bag_len, std::move((*chunks)[static_cast<size_t>(i)]));
        if (i == pieces - 1) {
          special_async_ = false;
          FinalizeActiveBag();
        }
      },
      IsCacheFile(filename) || replay);
}

void BagOperatorHost::FinishFileWrite() {
  if (special_values_.size() != 1 || !special_values_[0].is_string()) {
    ctx_->Fail(Status::InvalidArgument(
        "writeFile " + node_->name + " expected a one-element string "
        "filename bag, got " + mitos::ToString(special_values_, 4)));
    return;
  }
  const std::string filename = special_values_[0].str();
  const int bag_len = out_bags_.front().path_len;
  const bool replay = out_bags_.front().replay;
  ctx_->BeginFileWrite(filename, BagId{node_->id, bag_len});
  auto data = std::make_shared<DatumVector>(std::move(special_data_));
  special_data_.clear();
  size_t bytes = std::max<size_t>(SerializedSize(*data), 1);
  special_async_ = true;
  ctx_->backend()->DiskIo(
      machine_, bytes,
      [this, filename, data, bag_len] {
        if (ctx_->failed()) return;
        ctx_->AppendOutput(filename, instance_, bag_len, *data);
        special_async_ = false;
        FinalizeActiveBag();
      },
      IsCacheFile(filename) || replay);
}

// ----- emission -----

void BagOperatorHost::EmitChunk(int bag_len, Chunk&& chunk) {
  if (chunk.empty()) return;
  const size_t max_elems = ctx_->backend()->config().chunk_elements;
  const size_t total = chunk.size();
  if (total <= max_elems) {
    RoutePiece(bag_len, std::move(chunk));
    return;
  }
  // Split oversized emissions so consumers pipeline at chunk granularity.
  // Slices share the emitted buffer; no payload is copied.
  for (size_t begin = 0; begin < total; begin += max_elems) {
    RoutePiece(bag_len, chunk.Slice(begin, std::min(max_elems,
                                                    total - begin)));
  }
}

void BagOperatorHost::RoutePiece(int bag_len, Chunk piece) {
  for (size_t e = 0; e < out_edges_.size(); ++e) {
    // Move the shared handle on the last (or only) edge; earlier edges
    // copy it (a refcount bump, never a payload copy).
    const bool last = e + 1 == out_edges_.size();
    if (!out_edges_[e].conditional) {
      if (ctx_->blocking_shuffles() &&
          out_edges_[e].kind == EdgeKind::kShuffle) {
        ChunkVector& buffer = shuffle_buffers_[{bag_len, e}];
        if (last) {
          buffer.push_back(std::move(piece));
        } else {
          buffer.push_back(piece);
        }
      } else if (last) {
        SendOnEdge(e, bag_len, std::move(piece));
      } else {
        SendOnEdge(e, bag_len, piece);
      }
      continue;
    }
    PendingSend* ps = FindPendingSend(bag_len, e);
    if (ps == nullptr) {
      ctx_->Fail(Status::Internal(
          "operator " + node_->name + "[" + std::to_string(instance_) +
          "] emitted on conditional edge " + std::to_string(e) +
          " for bag @" + std::to_string(bag_len) +
          " without gating state"));
      return;
    }
    switch (ps->state) {
      case PendingSend::State::kSending:
        if (last) {
          SendOnEdge(e, bag_len, std::move(piece));
        } else {
          SendOnEdge(e, bag_len, piece);
        }
        break;
      case PendingSend::State::kPending:
        ctx_->TrackMemory(static_cast<int64_t>(piece.SerializedSize()));
        if (last) {
          ps->buffered.push_back(std::move(piece));
        } else {
          ps->buffered.push_back(piece);
        }
        break;
      case PendingSend::State::kDropped:
        break;
    }
  }
}

bool BagOperatorHost::PartitionChunk(const Chunk& chunk, size_t edge_index,
                                     ChunkVector* parts) {
  const OutEdgeInfo& edge = out_edges_[edge_index];
  const size_t par = static_cast<size_t>(edge.consumer_par);
  const bool by_key = edge.shuffle_key == ShuffleKey::kField0;
  const size_t n = chunk.size();
  parts->assign(par, Chunk());
  if (n == 0) return true;
  switch (chunk.rep()) {
    case Chunk::Rep::kInt64:
    case Chunk::Rep::kDouble: {
      if (by_key) {
        // Reachable from user programs (a keyed operation downstream of a
        // non-tuple bag); fail the job instead of aborting.
        ctx_->Fail(Status::InvalidArgument(
            "operator " + node_->name +
            " shuffles by key but emitted a non-tuple element: " +
            chunk.At(0).ToString()));
        return false;
      }
      if (chunk.rep() == Chunk::Rep::kInt64) {
        PartitionColumn(chunk, chunk.i64(), &Chunk::OfInt64, parts);
      } else {
        PartitionColumn(chunk, chunk.f64(), &Chunk::OfDouble, parts);
      }
      return true;
    }
    case Chunk::Rep::kInt64Pair:
      PartitionPairs(chunk, chunk.vals(), by_key, &Chunk::OfInt64Pairs, parts);
      return true;
    case Chunk::Rep::kInt64Double:
      PartitionPairs(chunk, chunk.dvals(), by_key, &Chunk::OfInt64Doubles,
                     parts);
      return true;
    case Chunk::Rep::kDatums: {
      std::vector<DatumVector> boxed(par);
      const Datum* data = chunk.datums();
      for (size_t i = 0; i < n; ++i) {
        const Datum& element = data[i];
        size_t h;
        if (by_key) {
          if (!element.is_tuple() || element.size() < 1) {
            ctx_->Fail(Status::InvalidArgument(
                "operator " + node_->name +
                " shuffles by key but emitted a non-tuple element: " +
                element.ToString()));
            return false;
          }
          h = element.field(0).Hash();
        } else {
          h = element.Hash();
        }
        boxed[h % par].push_back(element);
      }
      for (size_t p = 0; p < par; ++p) {
        if (!boxed[p].empty()) {
          (*parts)[p] =
              Chunk::OfDatums(std::move(boxed[p]), ctx_->columnar());
        }
      }
      return true;
    }
  }
  return true;
}

void BagOperatorHost::SendOnEdge(size_t edge_index, int bag_len,
                                 Chunk chunk) {
  const OutEdgeInfo& edge = out_edges_[edge_index];
  switch (edge.kind) {
    case EdgeKind::kForward:
      SendChunkTo(edge, instance_, bag_len, std::move(chunk));
      break;
    case EdgeKind::kGather:
      SendChunkTo(edge, 0, bag_len, std::move(chunk));
      break;
    case EdgeKind::kBroadcast:
      // Every consumer receives the same shared handle: a broadcast costs
      // consumer_par refcount bumps, not consumer_par payload copies.
      for (int ci = 0; ci < edge.consumer_par; ++ci) {
        if (ci + 1 == edge.consumer_par) {
          SendChunkTo(edge, ci, bag_len, std::move(chunk));
        } else {
          SendChunkTo(edge, ci, bag_len, chunk);
        }
      }
      break;
    case EdgeKind::kShuffle: {
      ChunkVector parts;
      if (!PartitionChunk(chunk, edge_index, &parts)) return;
      for (int ci = 0; ci < edge.consumer_par; ++ci) {
        Chunk& part = parts[static_cast<size_t>(ci)];
        if (!part.empty()) {
          SendChunkTo(edge, ci, bag_len, std::move(part));
        }
      }
      break;
    }
  }
}

void BagOperatorHost::SendChunkTo(const OutEdgeInfo& edge,
                                  int consumer_instance, int bag_len,
                                  Chunk chunk) {
  size_t bytes = chunk.SerializedSize() +
                 ctx_->backend()->config().control_message_bytes;
  int dst = ctx_->MachineOf(edge.consumer, consumer_instance);
  BagOperatorHost* consumer = ctx_->host(edge.consumer, consumer_instance);
  int input_index = edge.input_index;
  // The chunk handle rides inside the completion callback: on both
  // backends the channel hop moves a pointer, never the payload.
  ctx_->backend()->Send(machine_, dst, bytes,
                        [consumer, input_index, bag_len,
                         chunk = std::move(chunk)]() mutable {
                          consumer->DeliverChunk(input_index, bag_len,
                                                 std::move(chunk));
                        });
}

void BagOperatorHost::SendMarkerOnEdge(size_t edge_index, int bag_len) {
  const OutEdgeInfo& edge = out_edges_[edge_index];
  std::vector<int> dests;
  switch (edge.kind) {
    case EdgeKind::kForward:
      dests = {instance_};
      break;
    case EdgeKind::kGather:
      dests = {0};
      break;
    case EdgeKind::kBroadcast:
    case EdgeKind::kShuffle:
      for (int ci = 0; ci < edge.consumer_par; ++ci) dests.push_back(ci);
      break;
  }
  size_t bytes = ctx_->backend()->config().control_message_bytes;
  for (int ci : dests) {
    int dst = ctx_->MachineOf(edge.consumer, ci);
    BagOperatorHost* consumer = ctx_->host(edge.consumer, ci);
    int input_index = edge.input_index;
    ctx_->backend()->Send(machine_, dst, bytes,
                          [consumer, input_index, bag_len] {
                            consumer->DeliverMarker(input_index, bag_len);
                          });
  }
}

BagOperatorHost::PendingSend* BagOperatorHost::FindPendingSend(
    int bag_len, size_t edge_index) {
  for (PendingSend& ps : pending_sends_) {
    if (ps.bag_len == bag_len &&
        ps.edge_index == static_cast<int>(edge_index)) {
      return &ps;
    }
  }
  return nullptr;
}

void BagOperatorHost::AdvancePendingSends(ir::BlockId block) {
  const ir::Cfg& cfg = ctx_->cfg();
  for (PendingSend& ps : pending_sends_) {
    if (ps.state != PendingSend::State::kPending) continue;
    const OutEdgeInfo& edge = out_edges_[static_cast<size_t>(ps.edge_index)];
    if (block == edge.consumer_block) {
      // Transmit: the path reached the consumer before this operator's
      // block re-occurred (Sec. 5.2.4).
      ps.state = PendingSend::State::kSending;
      for (Chunk& chunk : ps.buffered) {
        ctx_->TrackMemory(-static_cast<int64_t>(chunk.SerializedSize()));
        SendOnEdge(static_cast<size_t>(ps.edge_index), ps.bag_len,
                   std::move(chunk));
      }
      ps.buffered.clear();
      if (ps.bag_finished) {
        SendMarkerOnEdge(static_cast<size_t>(ps.edge_index), ps.bag_len);
        ps.done = true;
      }
    } else if (block == node_->block ||
               !cfg.CanReachAvoiding(block, edge.consumer_block,
                                     node_->block)) {
      // A newer bag supersedes this one on the edge, or the consumer can
      // no longer be reached without passing this operator again: discard
      // the partition (the paper's discard rule).
      ps.state = PendingSend::State::kDropped;
      for (const Chunk& chunk : ps.buffered) {
        ctx_->TrackMemory(-static_cast<int64_t>(chunk.SerializedSize()));
      }
      ps.buffered.clear();
    }
  }
  pending_sends_.remove_if([](const PendingSend& ps) {
    return ps.bag_finished && (ps.done ||
                               ps.state == PendingSend::State::kDropped);
  });
}

// ----- diagnostics -----

bool BagOperatorHost::Idle() const {
  return out_bags_.empty() && work_.empty() && !busy_ && !special_async_;
}

std::string BagOperatorHost::DebugState() const {
  std::string s = node_->name + "[" + std::to_string(instance_) + "]";
  s += " out_bags=" + std::to_string(out_bags_.size());
  if (!out_bags_.empty()) {
    const OutBag& bag = out_bags_.front();
    s += " front(len=" + std::to_string(bag.path_len);
    for (size_t i = 0; i < inputs_.size(); ++i) {
      s += ", in" + std::to_string(i) + "=" + std::to_string(bag.chosen[i]);
      s += bag.closed[i] ? "closed" : "open";
      auto it = inputs_[i].bags.find(bag.chosen[i]);
      if (it != inputs_[i].bags.end()) {
        s += "(" + std::to_string(it->second.chunks.size()) + "ch," +
             std::to_string(it->second.markers) + "/" +
             std::to_string(inputs_[i].expected_markers) + "mk)";
      }
    }
    s += ")";
  }
  s += busy_ ? " busy" : "";
  s += special_async_ ? " io" : "";
  return s;
}

}  // namespace mitos::runtime
