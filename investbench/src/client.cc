#include "client.h"

#include <utility>

namespace investbench {

aiql::Result<WireClient> WireClient::Connect(uint16_t port) {
  AIQL_ASSIGN_OR_RETURN(aiql::Connection conn,
                        aiql::ConnectTo("127.0.0.1", port));
  WireClient client(std::move(conn));
  AIQL_ASSIGN_OR_RETURN(aiql::Response hello,
                        client.Call(aiql::EncodeHello()));
  if (hello.type != aiql::MsgType::kHelloOk) {
    return hello.type == aiql::MsgType::kError
               ? hello.error
               : aiql::Status::Internal("unexpected handshake reply");
  }
  return client;
}

aiql::Result<std::string> WireClient::RoundTrip(std::string_view request) {
  AIQL_RETURN_IF_ERROR(conn_.WriteFrame(request));
  return conn_.ReadFrame();
}

aiql::Result<aiql::Response> WireClient::Call(std::string_view request) {
  AIQL_ASSIGN_OR_RETURN(std::string payload, RoundTrip(request));
  return aiql::DecodeResponse(payload);
}

}  // namespace investbench
