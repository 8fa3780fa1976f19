#include "interest/interest.h"

#include <algorithm>

namespace dsps::interest {

void InterestSet::Add(common::StreamId stream, Box box) {
  if (BoxEmpty(box)) return;
  boxes_[stream].push_back(std::move(box));
}

void InterestSet::MergeFrom(const InterestSet& other) {
  for (const auto& [stream, boxes] : other.boxes_) {
    auto& mine = boxes_[stream];
    mine.insert(mine.end(), boxes.begin(), boxes.end());
  }
}

void SimplifyBoxes(std::vector<Box>* boxes, std::vector<uint32_t>* bounds) {
  const size_t n = boxes->size();
  std::vector<char> kept(n, 1);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      // Tie-break identical boxes by index so exactly one copy survives.
      if (BoxCovers((*boxes)[j], (*boxes)[i]) &&
          (!BoxCovers((*boxes)[i], (*boxes)[j]) || j < i)) {
        kept[i] = 0;
        break;
      }
    }
  }
  size_t w = 0;
  size_t b = 0;
  for (size_t i = 0; i < n; ++i) {
    for (; bounds != nullptr && b < bounds->size() && (*bounds)[b] <= i; ++b) {
      (*bounds)[b] = static_cast<uint32_t>(w);
    }
    if (kept[i]) {
      if (w != i) (*boxes)[w] = std::move((*boxes)[i]);
      ++w;
    }
  }
  for (; bounds != nullptr && b < bounds->size(); ++b) {
    (*bounds)[b] = static_cast<uint32_t>(w);
  }
  boxes->resize(w);
}

void InterestSet::MergeSimplifyFrom(const InterestSet& other,
                                    std::vector<common::StreamId>* changed) {
  for (const auto& [stream, boxes] : other.boxes_) {
    auto& mine = boxes_[stream];
    const std::vector<Box> before = mine;
    mine.insert(mine.end(), boxes.begin(), boxes.end());
    SimplifyBoxes(&mine);
    if (mine != before) changed->push_back(stream);
  }
}

bool InterestSet::InterestedIn(common::StreamId stream) const {
  auto it = boxes_.find(stream);
  return it != boxes_.end() && !it->second.empty();
}

bool InterestSet::Matches(common::StreamId stream, const double* point) const {
  auto it = boxes_.find(stream);
  if (it == boxes_.end()) return false;
  for (const Box& box : it->second) {
    if (BoxContains(box, point)) return true;
  }
  return false;
}

const std::vector<Box>* InterestSet::boxes_for(common::StreamId stream) const {
  auto it = boxes_.find(stream);
  if (it == boxes_.end()) return nullptr;
  return &it->second;
}

std::vector<common::StreamId> InterestSet::streams() const {
  std::vector<common::StreamId> out;
  out.reserve(boxes_.size());
  for (const auto& [stream, boxes] : boxes_) {
    if (!boxes.empty()) out.push_back(stream);
  }
  return out;
}

common::StreamId InterestSet::leading_stream() const {
  for (const auto& [stream, boxes] : boxes_) {
    if (!boxes.empty()) return stream;
  }
  return common::kInvalidStream;
}

void InterestSet::Simplify() {
  for (auto& [stream, boxes] : boxes_) {
    SimplifyBoxes(&boxes);
  }
}

int64_t InterestSet::TotalBoxes() const {
  int64_t n = 0;
  for (const auto& [stream, boxes] : boxes_) {
    n += static_cast<int64_t>(boxes.size());
  }
  return n;
}

}  // namespace dsps::interest
