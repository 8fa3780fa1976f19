#include "entity/processor.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace dsps::entity {

Processor::Processor(common::ProcessorId id, sim::Network* network,
                     common::SimNodeId node,
                     std::unique_ptr<engine::ExecutionEngine> engine,
                     double capacity)
    : id_(id),
      network_(network),
      node_(node),
      engine_(std::move(engine)),
      capacity_(capacity) {
  DSPS_CHECK(network != nullptr);
  DSPS_CHECK(engine_ != nullptr);
  DSPS_CHECK(capacity > 0);
}

common::Status Processor::InstallFragment(
    std::unique_ptr<engine::FragmentInstance> f) {
  return engine_->Install(std::move(f));
}

common::Result<std::unique_ptr<engine::FragmentInstance>>
Processor::RemoveFragment(common::FragmentId id) {
  std::vector<engine::TaggedOutput> flushed;
  auto result = engine_->Remove(id, &flushed);
  if (!flushed.empty() && emission_) {
    double completion = network_->simulator()->now();
    for (auto& out : flushed) {
      emission_(Emission{std::move(out), completion});
    }
  }
  return result;
}

void Processor::SetEmissionHandler(EmissionHandler handler) {
  emission_ = std::move(handler);
}

common::Status Processor::Submit(common::FragmentId fragment,
                                 common::OperatorId op, int port,
                                 const engine::Tuple& tuple) {
  std::vector<engine::TaggedOutput> outputs;
  DSPS_RETURN_IF_ERROR(engine_->Inject(fragment, op, port, tuple, &outputs));
  double cost = engine_->DrainCpuCost() / capacity_;
  sim::Simulator* sim = network_->simulator();
  double start = std::max(sim->now(), busy_until_);
  busy_until_ = start + cost;
  busy_seconds_ += cost;
  tuples_processed_ += 1;
  double completion = busy_until_;
  if (tuple.trace_id != 0) {
    // Downstream hops and the final result keep the sampled tuple's trace.
    for (engine::TaggedOutput& out : outputs) {
      out.output.tuple.trace_id = tuple.trace_id;
    }
    if (trace_ != nullptr) {
      trace_->Record(tuple.trace_id, telemetry::Stage::kQueueWait, sim->now(),
                     start);
      trace_->Record(tuple.trace_id, telemetry::Stage::kExecute, start,
                     completion);
    }
  }
  if (tuples_counter_ != nullptr) {
    tuples_counter_->Increment();
    queue_wait_hist_->Add(start - sim->now());
    backlog_gauge_->Set(busy_until_ - sim->now());
    if (sim->now() > 0) utilization_gauge_->Set(busy_seconds_ / sim->now());
  }
  if (!outputs.empty() && emission_) {
    // Deliver outputs when the CPU work completes.
    auto shared =
        std::make_shared<std::vector<engine::TaggedOutput>>(std::move(outputs));
    sim->ScheduleAt(completion, [this, shared, completion]() {
      for (auto& out : *shared) {
        emission_(Emission{std::move(out), completion});
      }
    });
  }
  return common::Status::OK();
}

void Processor::SetTelemetry(telemetry::MetricsRegistry* metrics,
                             telemetry::TraceLog* trace,
                             const telemetry::Labels& labels) {
  trace_ = trace;
  if (metrics == nullptr) {
    tuples_counter_ = nullptr;
    queue_wait_hist_ = nullptr;
    backlog_gauge_ = nullptr;
    utilization_gauge_ = nullptr;
    return;
  }
  tuples_counter_ = metrics->counter("processor.tuples", labels);
  queue_wait_hist_ = metrics->histogram("processor.queue_wait_s", labels);
  backlog_gauge_ = metrics->gauge("processor.backlog_s", labels);
  utilization_gauge_ = metrics->gauge("processor.utilization", labels);
}

double Processor::backlog_seconds() const {
  double now = network_->simulator()->now();
  return std::max(0.0, busy_until_ - now);
}

}  // namespace dsps::entity
