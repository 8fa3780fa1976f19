#include "partition/repartitioner.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/check.h"

namespace dsps::partition {

namespace {

double WallSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Extends `old_assignment` to the graph size with -1 (no previous home).
std::vector<int> PadOld(const std::vector<int>& old_assignment, int n) {
  std::vector<int> padded = old_assignment;
  padded.resize(n, -1);
  return padded;
}

/// Assigns homeless vertices (part -1) to their best part by affinity,
/// lightest part as fallback.
void PlaceNewVertices(const QueryGraph& graph, std::vector<int>* assignment,
                      int k, double cap) {
  std::vector<double> part_weight(k, 0.0);
  for (int v = 0; v < graph.num_vertices(); ++v) {
    if ((*assignment)[v] >= 0) part_weight[(*assignment)[v]] += graph.vertex_weight(v);
  }
  std::vector<double> affinity(k, 0.0);
  for (int v = 0; v < graph.num_vertices(); ++v) {
    if ((*assignment)[v] >= 0) continue;
    std::fill(affinity.begin(), affinity.end(), 0.0);
    for (const auto& [nb, w] : graph.neighbors(v)) {
      if ((*assignment)[nb] >= 0) affinity[(*assignment)[nb]] += w;
    }
    double w_v = graph.vertex_weight(v);
    int best = -1;
    double best_aff = -1.0;
    for (int p = 0; p < k; ++p) {
      if (part_weight[p] + w_v > cap) continue;
      if (affinity[p] > best_aff) {
        best = p;
        best_aff = affinity[p];
      }
    }
    if (best < 0) {
      best = static_cast<int>(
          std::min_element(part_weight.begin(), part_weight.end()) -
          part_weight.begin());
    }
    (*assignment)[v] = best;
    part_weight[best] += w_v;
  }
}

RepartitionResult Finish(const QueryGraph& graph,
                         const std::vector<int>& old_padded,
                         std::vector<int> assignment, int k,
                         std::chrono::steady_clock::time_point start) {
  RepartitionResult r;
  r.migrations = CountMigrations(old_padded, assignment);
  r.edge_cut = graph.EdgeCut(assignment);
  r.imbalance = graph.Imbalance(assignment, k);
  r.decision_seconds = WallSeconds(start);
  r.assignment = std::move(assignment);
  return r;
}

}  // namespace

void Repartitioner::RecordMetrics(const RepartitionResult& result) {
  if (metrics_ == nullptr) return;
  telemetry::Labels labels = telemetry::MakeLabels({{"strategy", name()}});
  metrics_->counter("partition.repartitions", labels)->Increment();
  metrics_->counter("partition.migrations", labels)
      ->Increment(result.migrations);
  metrics_->gauge("partition.edge_cut", labels)->Set(result.edge_cut);
  metrics_->gauge("partition.imbalance", labels)->Set(result.imbalance);
  metrics_->histogram("partition.decision_seconds", std::move(labels))
      ->Add(result.decision_seconds);
}

int CountMigrations(const std::vector<int>& old_assignment,
                    const std::vector<int>& new_assignment) {
  int migrations = 0;
  size_t n = std::min(old_assignment.size(), new_assignment.size());
  for (size_t v = 0; v < n; ++v) {
    if (old_assignment[v] >= 0 && old_assignment[v] != new_assignment[v]) {
      ++migrations;
    }
  }
  return migrations;
}

void RelabelToMinimizeMigrations(const QueryGraph& graph,
                                 const std::vector<int>& old_assignment,
                                 std::vector<int>* new_assignment, int k) {
  DSPS_CHECK(new_assignment != nullptr);
  // overlap[i][j] = vertex weight in old part i and new part j.
  std::vector<std::vector<double>> overlap(k, std::vector<double>(k, 0.0));
  for (int v = 0;
       v < graph.num_vertices() && v < static_cast<int>(old_assignment.size());
       ++v) {
    int o = old_assignment[v];
    int nn = (*new_assignment)[v];
    if (o >= 0 && o < k) overlap[o][nn] += graph.vertex_weight(v);
  }
  // Greedy max-weight matching: repeatedly take the biggest remaining cell.
  std::vector<int> new_to_label(k, -1);
  std::vector<bool> old_used(k, false);
  for (int iter = 0; iter < k; ++iter) {
    int bi = -1, bj = -1;
    double best = -1.0;
    for (int i = 0; i < k; ++i) {
      if (old_used[i]) continue;
      for (int j = 0; j < k; ++j) {
        if (new_to_label[j] >= 0) continue;
        if (overlap[i][j] > best) {
          best = overlap[i][j];
          bi = i;
          bj = j;
        }
      }
    }
    if (bi < 0) break;
    new_to_label[bj] = bi;
    old_used[bi] = true;
  }
  for (int j = 0; j < k; ++j) {
    if (new_to_label[j] < 0) {
      for (int i = 0; i < k; ++i) {
        if (!old_used[i]) {
          new_to_label[j] = i;
          old_used[i] = true;
          break;
        }
      }
    }
  }
  for (int& p : *new_assignment) p = new_to_label[p];
}

// ------------------------------------------------------ ScratchRepartitioner

ScratchRepartitioner::ScratchRepartitioner(MultilevelPartitioner::Config config)
    : partitioner_(config) {}

RepartitionResult ScratchRepartitioner::Repartition(
    const QueryGraph& graph, const std::vector<int>& old_assignment, int k,
    double balance_tolerance) {
  auto start = std::chrono::steady_clock::now();
  std::vector<int> old_padded = PadOld(old_assignment, graph.num_vertices());
  auto result = partitioner_.Partition(graph, k, balance_tolerance);
  DSPS_CHECK(result.ok());
  std::vector<int> assignment = std::move(result).value();
  RelabelToMinimizeMigrations(graph, old_padded, &assignment, k);
  RepartitionResult r = Finish(graph, old_padded, std::move(assignment), k, start);
  RecordMetrics(r);
  return r;
}

// -------------------------------------------------- IncrementalRepartitioner

RepartitionResult IncrementalRepartitioner::Repartition(
    const QueryGraph& graph, const std::vector<int>& old_assignment, int k,
    double balance_tolerance) {
  auto start = std::chrono::steady_clock::now();
  const int n = graph.num_vertices();
  const double cap = balance_tolerance * graph.total_vertex_weight() / k;
  std::vector<int> old_padded = PadOld(old_assignment, n);
  std::vector<int> assignment = old_padded;
  // New queries go to the lightest part (no overlap awareness here).
  std::vector<double> part_weight(k, 0.0);
  for (int v = 0; v < n; ++v) {
    if (assignment[v] >= 0) part_weight[assignment[v]] += graph.vertex_weight(v);
  }
  for (int v = 0; v < n; ++v) {
    if (assignment[v] >= 0) continue;
    int lightest = static_cast<int>(
        std::min_element(part_weight.begin(), part_weight.end()) -
        part_weight.begin());
    assignment[v] = lightest;
    part_weight[lightest] += graph.vertex_weight(v);
  }
  // Drain overloaded parts into the lightest parts, smallest vertices
  // first (fewest migrations per unit of load moved), overlap-oblivious.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return graph.vertex_weight(a) < graph.vertex_weight(b);
  });
  bool changed = true;
  while (changed) {
    changed = false;
    int heaviest = static_cast<int>(
        std::max_element(part_weight.begin(), part_weight.end()) -
        part_weight.begin());
    if (part_weight[heaviest] <= cap) break;
    int lightest = static_cast<int>(
        std::min_element(part_weight.begin(), part_weight.end()) -
        part_weight.begin());
    for (int v : order) {
      if (assignment[v] != heaviest) continue;
      double w_v = graph.vertex_weight(v);
      if (part_weight[lightest] + w_v > cap) continue;
      assignment[v] = lightest;
      part_weight[heaviest] -= w_v;
      part_weight[lightest] += w_v;
      changed = true;
      break;
    }
  }
  RepartitionResult r = Finish(graph, old_padded, std::move(assignment), k, start);
  RecordMetrics(r);
  return r;
}

// ------------------------------------------------------- HybridRepartitioner

HybridRepartitioner::HybridRepartitioner()
    : HybridRepartitioner(Config()) {}

HybridRepartitioner::HybridRepartitioner(const Config& config)
    : config_(config) {}

RepartitionResult HybridRepartitioner::Repartition(
    const QueryGraph& graph, const std::vector<int>& old_assignment, int k,
    double balance_tolerance) {
  auto start = std::chrono::steady_clock::now();
  const int n = graph.num_vertices();
  const double cap = balance_tolerance * graph.total_vertex_weight() / k;
  std::vector<int> old_padded = PadOld(old_assignment, n);
  std::vector<int> assignment = old_padded;
  // New queries placed by interest affinity.
  PlaceNewVertices(graph, &assignment, k, cap);
  std::vector<double> part_weight = graph.PartWeights(assignment, k);
  // Rebalance overloaded parts by evicting the boundary vertex with the
  // best (cut gain per unit load) to an underloaded part.
  std::vector<double> affinity(k, 0.0);
  for (int guard = 0; guard < 4 * n; ++guard) {
    int heaviest = static_cast<int>(
        std::max_element(part_weight.begin(), part_weight.end()) -
        part_weight.begin());
    if (part_weight[heaviest] <= cap) break;
    int best_v = -1, best_p = -1;
    double best_score = -1e300;
    for (int v = 0; v < n; ++v) {
      if (assignment[v] != heaviest) continue;
      double w_v = graph.vertex_weight(v);
      if (w_v <= 0) continue;
      std::fill(affinity.begin(), affinity.end(), 0.0);
      for (const auto& [nb, w] : graph.neighbors(v)) {
        affinity[assignment[nb]] += w;
      }
      for (int p = 0; p < k; ++p) {
        if (p == heaviest) continue;
        if (part_weight[p] + w_v > cap) continue;
        // Cut change if moved: affinity[p] - affinity[heaviest];
        // prefer high gain and heavy vertices (fewer moves needed).
        double score = (affinity[p] - affinity[heaviest]) + 1e-3 * w_v;
        if (score > best_score) {
          best_score = score;
          best_v = v;
          best_p = p;
        }
      }
    }
    if (best_v < 0) break;  // nothing movable
    part_weight[heaviest] -= graph.vertex_weight(best_v);
    part_weight[best_p] += graph.vertex_weight(best_v);
    assignment[best_v] = best_p;
  }
  // Bounded local refinement to recover cut quality.
  FmRefine(graph, &assignment, k, balance_tolerance, config_.refine_passes);
  RepartitionResult r = Finish(graph, old_padded, std::move(assignment), k, start);
  RecordMetrics(r);
  return r;
}

AssignmentQuality EvaluateAssignment(const QueryGraph& graph,
                                     const std::vector<int>& assignment,
                                     int k) {
  AssignmentQuality q;
  q.edge_cut = graph.EdgeCut(assignment);
  q.imbalance = graph.Imbalance(assignment, k);
  return q;
}

std::unique_ptr<Repartitioner> MakeRepartitioner(const std::string& name) {
  if (name == "scratch") return std::make_unique<ScratchRepartitioner>();
  if (name == "incremental") {
    return std::make_unique<IncrementalRepartitioner>();
  }
  if (name == "hybrid") return std::make_unique<HybridRepartitioner>();
  return nullptr;
}

}  // namespace dsps::partition
