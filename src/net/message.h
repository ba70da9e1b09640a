// Point-to-point messages between simulated parties.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>

#include "util/codec.h"
#include "util/thread_safety.h"

namespace nampc {

using PartyId = int;

/// Sentinel instance id for cost attribution: work that belongs to no
/// protocol instance (driver-scheduled timers, ideal-gadget plumbing) lands
/// in the metrics registry's "unattributed" cell under this id.
inline constexpr std::uint32_t kNoInstance = 0xffffffffu;

/// A message body: an immutable, reference-counted word buffer.
///
/// Copies share one buffer, so ProtocolInstance::send_all builds a body
/// once and posts n handles to it, and Acast forwards the body it received
/// without copying. An empty payload allocates nothing. The only write
/// path is mutate(), which copies a shared buffer first: an adversarial
/// rewrite of one recipient's message never changes the words any other
/// holder sees. The count is atomic because the threaded backend
/// (net/threaded.h) hands one buffer to every party thread.
///
/// The buffer is one allocation holding the count next to the Words
/// header; the words themselves stay in the vector's storage, moved in
/// from the encoder, so Payload converts to `const Words&` for free and
/// `Reader r(msg.payload)` decodes in place.
class Payload {
 public:
  Payload() = default;
  /// Implicit: protocol code encodes into Words and sends those.
  Payload(Words words)
      : block_(words.empty() ? nullptr : new Block(std::move(words))) {}
  Payload(std::initializer_list<Word> words) : Payload(Words(words)) {}
  Payload(const Payload& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) {
      block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Payload(Payload&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  Payload& operator=(Payload other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~Payload() { release(); }

  [[nodiscard]] const Words& words() const {
    return block_ != nullptr ? block_->words : kEmpty;
  }
  /// Implicit: decoders (Reader) take `const Words&`.
  operator const Words&() const { return words(); }

  [[nodiscard]] std::size_t size() const { return words().size(); }
  [[nodiscard]] bool empty() const { return words().empty(); }

  /// Copy-on-write access for adversarial rewrites: detaches this handle
  /// onto a private copy when the buffer is shared, then returns it.
  [[nodiscard]] Words& mutate() {
    if (block_ == nullptr) {
      block_ = new Block(Words{});
    } else if (block_->refs.load(std::memory_order_acquire) != 1) {
      Block* own = new Block(block_->words);
      release();
      block_ = own;
    }
    return block_->words;
  }

  /// True when both handles hold the same (non-empty) buffer.
  [[nodiscard]] bool shares_buffer_with(const Payload& other) const {
    return block_ != nullptr && block_ == other.block_;
  }

  friend bool operator==(const Payload& a, const Words& b) {
    return a.words() == b;
  }

 private:
  struct Block {
    explicit Block(Words w) : words(std::move(w)) {}
    NAMPC_LOCK_FREE("payload share count, released on every party thread")
    std::atomic<std::size_t> refs{1};
    Words words;
  };

  // Constant-initialised (constexpr default constructor): no guard.
  static inline const Words kEmpty{};

  void release() noexcept {
    if (block_ != nullptr &&
        block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete block_;
    }
    block_ = nullptr;
  }

  Block* block_ = nullptr;
};

/// A message addressed to a protocol instance on the receiving party.
///
/// Routing keys are hierarchical strings ("vss0/it2/inner3/acast"), but the
/// hot delivery path never touches them: every key is interned once per
/// Simulation (ProtocolInstance construction) into a dense `instance_id`,
/// and parties route by indexing a vector with that id. `instance_name`
/// points at the interned string (owned by the Simulation, stable for the
/// run) so adversary filters and tracers can still match on the text via
/// instance() without a lookup.
///
/// `type` is a protocol-defined tag; `payload` is the word-encoded body,
/// shared with every other recipient of the same send_all.
///
/// Channels are authenticated point-to-point links: what the adversary may
/// do to a message in flight (drop/rewrite only for corrupt `from`, delay
/// subject to Δ-clamping, kFarFuture semantics) is stated once in the
/// model-enforcement contract of net/adversary.h.
struct Message {
  PartyId from = -1;
  PartyId to = -1;
  int type = 0;
  std::uint32_t instance_id = 0;
  const std::string* instance_name = nullptr;
  Payload payload;

  /// The routing key text (interned; valid for the simulation's lifetime).
  [[nodiscard]] const std::string& instance() const { return *instance_name; }
};

}  // namespace nampc
