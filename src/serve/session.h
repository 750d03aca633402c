#pragma once
// One in-flight serve request.
//
// A Session is the server-side arena of one work request (campaign / soc /
// field / lint): its identity, its cooperative cancellation flag (the
// target of `cancel` requests, polled by the engines at shard boundaries
// through common/cancel.h).  Sessions live in
// the Server's registry from `accepted` until the terminal event
// (`result`, `error` or `cancelled`) has been emitted, and are reachable
// by id for exactly that window — cancelling a finished session is an
// error, which keeps cancel semantics unambiguous.

#include <atomic>
#include <cstddef>
#include <string>

namespace pmbist::serve {

struct Session {
  std::string id;
  /// Set by a `cancel` request; engines poll it between shards.
  std::atomic<bool> cancel{false};
  /// The posting TCP connection's count of unfinished sessions, which
  /// the terminal event decrements (null for in-process posts).  Guarded
  /// by the server's registry mutex.
  std::size_t* in_flight = nullptr;
};

}  // namespace pmbist::serve
