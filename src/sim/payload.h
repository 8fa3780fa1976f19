#ifndef DSPS_SIM_PAYLOAD_H_
#define DSPS_SIM_PAYLOAD_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dsps::sim {

/// Type-erased message payload with small-buffer storage.
///
/// Any copyable type fits; types up to kInlineBytes (and nothrow-movable)
/// live inside the Payload itself, larger ones in one heap allocation. The
/// tuple-forward envelope of the data plane fits inline, so forwarding a
/// tuple allocates nothing for its payload. The type is identified by a
/// per-type operations table, not RTTI: get<T>() is one pointer compare.
/// The simulator layer knows none of the upper layers' envelope types.
class Payload {
 public:
  static constexpr size_t kInlineBytes = 48;

  Payload() = default;

  template <class T, class D = std::decay_t<T>,
            class = std::enable_if_t<!std::is_same_v<D, Payload>>>
  Payload(T&& value) {  // NOLINT(google-explicit-constructor): like std::any
    emplace<D>(std::forward<T>(value));
  }

  Payload(const Payload& other) {
    if (other.ops_ != nullptr) {
      other.ops_->copy(&storage_, &other.storage_);
      ops_ = other.ops_;
    }
  }
  Payload(Payload&& other) noexcept { TakeFrom(&other); }
  Payload& operator=(const Payload& other) {
    if (this != &other) *this = Payload(other);
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      TakeFrom(&other);
    }
    return *this;
  }
  ~Payload() { reset(); }

  /// Destroys the held value (if any) and constructs a T from `args`.
  template <class T, class... Args>
  T& emplace(Args&&... args) {
    reset();
    T* value;
    if constexpr (kFitsInline<T>) {
      value = ::new (static_cast<void*>(&storage_))
          T(std::forward<Args>(args)...);
    } else {
      value = new T(std::forward<Args>(args)...);
      ::new (static_cast<void*>(&storage_)) T*(value);
    }
    ops_ = &kOps<T>;
    return *value;
  }

  /// The held value if it is a T, else nullptr.
  template <class T>
  T* get() {
    return ops_ == &kOps<T> ? Ptr<T>() : nullptr;
  }
  template <class T>
  const T* get() const {
    return ops_ == &kOps<T> ? const_cast<Payload*>(this)->Ptr<T>() : nullptr;
  }

  bool has_value() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(&storage_);
      ops_ = nullptr;
    }
  }

  /// True when values of T are stored inline (no heap allocation).
  template <class T>
  static constexpr bool StoresInline() {
    return kFitsInline<T>;
  }

 private:
  struct Storage {
    alignas(std::max_align_t) unsigned char bytes[kInlineBytes];
  };
  struct Ops {
    void (*copy)(Storage* dst, const Storage* src);
    /// Moves src's value into dst and leaves src destroyed.
    void (*relocate)(Storage* dst, Storage* src);
    void (*destroy)(Storage* s);
  };

  template <class T>
  static constexpr bool kFitsInline =
      sizeof(T) <= kInlineBytes && alignof(T) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<T>;

  template <class T>
  static T* PtrIn(Storage* s) {
    if constexpr (kFitsInline<T>) {
      return std::launder(reinterpret_cast<T*>(s));
    } else {
      return *std::launder(reinterpret_cast<T**>(s));
    }
  }
  template <class T>
  T* Ptr() {
    return PtrIn<T>(&storage_);
  }

  template <class T>
  static void CopyImpl(Storage* dst, const Storage* src) {
    const T& value = *PtrIn<T>(const_cast<Storage*>(src));
    if constexpr (kFitsInline<T>) {
      ::new (static_cast<void*>(dst)) T(value);
    } else {
      ::new (static_cast<void*>(dst)) T*(new T(value));
    }
  }
  template <class T>
  static void RelocateImpl(Storage* dst, Storage* src) {
    if constexpr (kFitsInline<T>) {
      T* from = PtrIn<T>(src);
      ::new (static_cast<void*>(dst)) T(std::move(*from));
      from->~T();
    } else {
      ::new (static_cast<void*>(dst)) T*(PtrIn<T>(src));
    }
  }
  template <class T>
  static void DestroyImpl(Storage* s) {
    if constexpr (kFitsInline<T>) {
      PtrIn<T>(s)->~T();
    } else {
      delete PtrIn<T>(s);
    }
  }
  template <class T>
  static constexpr Ops kOps{&CopyImpl<T>, &RelocateImpl<T>, &DestroyImpl<T>};

  void TakeFrom(Payload* other) {
    if (other->ops_ != nullptr) {
      other->ops_->relocate(&storage_, &other->storage_);
      ops_ = other->ops_;
      other->ops_ = nullptr;
    }
  }

  Storage storage_;
  const Ops* ops_ = nullptr;
};

}  // namespace dsps::sim

#endif  // DSPS_SIM_PAYLOAD_H_
