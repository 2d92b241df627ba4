#include "src/net/channel.h"

#include <utility>

#include "src/common/logging.h"

namespace slacker::net {

Channel::Channel(sim::Simulator* sim, resource::NetworkLink* link)
    : sim_(sim), link_(link) {}

void Channel::OnMessage(Handler handler) { handler_ = std::move(handler); }
void Channel::OnError(ErrorHandler handler) {
  error_handler_ = std::move(handler);
}
void Channel::SetDeliveryFilter(DeliveryFilter filter) {
  delivery_filter_ = std::move(filter);
}
void Channel::SetFrameCorrupter(FrameCorrupter corrupter) {
  frame_corrupter_ = std::move(corrupter);
}
void Channel::OnDrop(DropHandler handler) {
  drop_handler_ = std::move(handler);
}

void Channel::Send(const Message& message, uint64_t* sent_bytes) {
  std::vector<uint8_t> frame = EncodeMessage(message);
  // Snapshot chunks represent far more logical bytes than their compact
  // digest encoding; charge the wire for the *encoded* payload (equal
  // to the logical payload for raw frames) so the link model sees the
  // true post-codec migration volume.
  const uint64_t wire_bytes =
      frame.size() + message.wire_payload_bytes();
  ++messages_sent_;
  bytes_sent_ += wire_bytes;
  if (sent_bytes != nullptr) *sent_bytes = wire_bytes;
  // Captured at send time: a frame the corrupter renders undecodable
  // can still be attributed to its message when reporting the drop.
  DropInfo info;
  info.type = message.type;
  info.tenant_id = message.tenant_id;
  info.payload_bytes = message.payload_bytes;
  info.wire_payload_bytes = message.wire_payload_bytes();
  link_->Send(wire_bytes, [this, info, frame = std::move(frame)]() mutable {
    if (frame_corrupter_) frame_corrupter_(&frame);
    Message received;
    const Status status = DecodeMessage(frame, &received);
    if (!status.ok()) {
      SLACKER_LOG_ERROR << "channel decode failed: " << status.ToString();
      if (drop_handler_) drop_handler_(info);
      if (error_handler_) error_handler_(status);
      return;
    }
    if (delivery_filter_ && !delivery_filter_(&received)) {
      ++messages_dropped_;
      if (drop_handler_) drop_handler_(info);
      return;
    }
    if (handler_) handler_(std::move(received));
  });
}

}  // namespace slacker::net
