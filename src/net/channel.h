#ifndef SLACKER_NET_CHANNEL_H_
#define SLACKER_NET_CHANNEL_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/net/message.h"
#include "src/resource/network_link.h"

namespace slacker::net {

/// A peer-to-peer control/data channel between two Slacker nodes,
/// riding a simulated NetworkLink. Messages are serialized to their
/// real wire size (so the gigabit link is charged the true byte count)
/// and decoded at the receiver — a corrupted or undecodable frame is a
/// bug, surfaced through the error handler.
class Channel {
 public:
  /// Receives each decoded message; the handler may move out of it.
  using Handler = std::function<void(Message&&)>;
  using ErrorHandler = std::function<void(const Status&)>;

  /// `link` carries this direction of the channel and must outlive it.
  Channel(sim::Simulator* sim, resource::NetworkLink* link);

  /// Installs the receiver-side message handler.
  void OnMessage(Handler handler);
  void OnError(ErrorHandler handler);

  /// Fault-injection hooks for tests and chaos experiments.
  /// `DeliveryFilter` runs on each decoded message at delivery; return
  /// false to drop it (a lost datagram / dead peer). It may also mutate
  /// the message (a buggy peer).
  using DeliveryFilter = std::function<bool(Message*)>;
  void SetDeliveryFilter(DeliveryFilter filter);  // NOLINT(slacker-test-only): seam — drops and mutates delivered messages
  /// `FrameCorrupter` runs on the raw frame bytes before decoding
  /// (simulated bit rot); corrupted frames fail the CRC and surface
  /// through OnError.
  using FrameCorrupter = std::function<void(std::vector<uint8_t>*)>;
  void SetFrameCorrupter(FrameCorrupter corrupter);  // NOLINT(slacker-test-only): seam — bit rot on the wire

  /// Identity of a message the channel ate (undecodable frame or
  /// delivery-filter drop), captured at Send time so even a frame that
  /// cannot be decoded is still attributable. Feeds the invariant
  /// auditor's conservation ledger.
  struct DropInfo {
    MessageType type = MessageType::kMigrateRequest;
    uint64_t tenant_id = 0;
    uint64_t payload_bytes = 0;
    /// Encoded (post-codec) payload bytes; equals payload_bytes for
    /// raw frames. The wire-byte leg of the conservation ledger.
    uint64_t wire_payload_bytes = 0;
  };
  using DropHandler = std::function<void(const DropInfo&)>;
  void OnDrop(DropHandler handler);

  /// Serializes and transmits; the receiver's handler fires on arrival.
  /// `sent_bytes` (optional out) reports the frame size put on the wire.
  void Send(const Message& message, uint64_t* sent_bytes = nullptr);

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t messages_dropped() const { return messages_dropped_; }

 private:
  sim::Simulator* sim_;
  resource::NetworkLink* link_;
  Handler handler_;
  ErrorHandler error_handler_;
  DeliveryFilter delivery_filter_;
  FrameCorrupter frame_corrupter_;
  DropHandler drop_handler_;
  uint64_t messages_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t messages_dropped_ = 0;
};

}  // namespace slacker::net

#endif  // SLACKER_NET_CHANNEL_H_
