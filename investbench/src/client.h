// A blocking protocol client: one TCP connection to AiqlServer speaking the
// public protocol.h encoders and decoders.

#ifndef INVESTBENCH_CLIENT_H_
#define INVESTBENCH_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/net.h"
#include "common/status.h"
#include "server/protocol.h"

namespace investbench {

class WireClient {
 public:
  /// Connects to 127.0.0.1:`port` and completes the version handshake.
  static aiql::Result<WireClient> Connect(uint16_t port);

  /// Sends one encoded request frame and returns the raw response payload.
  aiql::Result<std::string> RoundTrip(std::string_view request);

  /// RoundTrip + DecodeResponse.
  aiql::Result<aiql::Response> Call(std::string_view request);

 private:
  explicit WireClient(aiql::Connection conn) : conn_(std::move(conn)) {}

  aiql::Connection conn_;
};

}  // namespace investbench

#endif  // INVESTBENCH_CLIENT_H_
