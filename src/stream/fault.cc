#include "stream/fault.h"

#include <cctype>
#include <cstdlib>

namespace dssj::stream {
namespace {

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool ParseInt(const std::string& s, int* out) {
  uint64_t v = 0;
  if (!ParseU64(s, &v) || v > 1000000) return false;
  *out = static_cast<int>(v);
  return true;
}

/// Parses "<comp>:<index>" into its parts.
bool ParseEndpoint(const std::string& s, std::string* comp, int* index) {
  const size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  *comp = Trim(s.substr(0, colon));
  return !comp->empty() && ParseInt(Trim(s.substr(colon + 1)), index);
}

Status Malformed(const std::string& stmt, const std::string& why) {
  return Status::InvalidArgument("malformed fault statement '" + stmt + "': " + why);
}

/// Parses the "<src>:<i>-><dst>:<j>@<seq>[x<micros>]" tail shared by the
/// three link-fault verbs.
Status ParseLinkFault(LinkFaultKind kind, const std::string& stmt, const std::string& body,
                      FaultScript* script) {
  const size_t arrow = body.find("->");
  if (arrow == std::string::npos) return Malformed(stmt, "expected '->'");
  const size_t at = body.find('@', arrow);
  if (at == std::string::npos) return Malformed(stmt, "expected '@<seq>'");

  LinkFault fault;
  fault.kind = kind;
  if (!ParseEndpoint(Trim(body.substr(0, arrow)), &fault.src_component, &fault.src_index)) {
    return Malformed(stmt, "bad source '<comp>:<task>'");
  }
  if (!ParseEndpoint(Trim(body.substr(arrow + 2, at - arrow - 2)), &fault.dst_component,
                     &fault.dst_index)) {
    return Malformed(stmt, "bad destination '<comp>:<task>'");
  }
  std::string seq_part = Trim(body.substr(at + 1));
  if (kind == LinkFaultKind::kDelay || kind == LinkFaultKind::kDisconnect) {
    // delay requires '@<seq>x<micros>'; disconnect's 'x<micros>' (the
    // reconnect delay) is optional and defaults to reconnecting at once.
    const size_t x = seq_part.find('x');
    if (x == std::string::npos && kind == LinkFaultKind::kDelay) {
      return Malformed(stmt, "delay needs '@<seq>x<micros>'");
    }
    if (x != std::string::npos) {
      uint64_t micros = 0;
      if (!ParseU64(Trim(seq_part.substr(x + 1)), &micros)) {
        return Malformed(stmt, "bad delay micros");
      }
      fault.delay_micros = static_cast<int64_t>(micros);
      seq_part = Trim(seq_part.substr(0, x));
    }
  }
  if (!ParseU64(seq_part, &fault.at_seq) || fault.at_seq == 0) {
    return Malformed(stmt, "bad link sequence number (1-based)");
  }
  if (kind == LinkFaultKind::kDrop) {
    script->DropAt(fault.src_component, fault.src_index, fault.dst_component, fault.dst_index,
                   fault.at_seq);
  } else if (kind == LinkFaultKind::kDuplicate) {
    script->DuplicateAt(fault.src_component, fault.src_index, fault.dst_component,
                        fault.dst_index, fault.at_seq);
  } else if (kind == LinkFaultKind::kDisconnect) {
    script->DisconnectAt(fault.src_component, fault.src_index, fault.dst_component,
                         fault.dst_index, fault.at_seq, fault.delay_micros);
  } else {
    script->DelayAt(fault.src_component, fault.src_index, fault.dst_component, fault.dst_index,
                    fault.at_seq, fault.delay_micros);
  }
  return Status::OK();
}

}  // namespace

StatusOr<FaultScript> FaultScript::Parse(const std::string& text) {
  FaultScript script;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t semi = text.find(';', pos);
    const std::string stmt =
        Trim(text.substr(pos, semi == std::string::npos ? std::string::npos : semi - pos));
    pos = semi == std::string::npos ? text.size() + 1 : semi + 1;
    if (stmt.empty()) continue;

    const size_t colon = stmt.find(':');
    if (colon == std::string::npos) return Malformed(stmt, "expected '<verb>:'");
    const std::string verb = Trim(stmt.substr(0, colon));
    const std::string body = stmt.substr(colon + 1);
    if (verb == "kill" || verb == "stall") {
      const size_t at = body.find('@');
      if (at == std::string::npos) return Malformed(stmt, "expected '@<count>'");
      std::string component;
      int task_index = 0;
      uint64_t at_count = 0;
      if (!ParseEndpoint(Trim(body.substr(0, at)), &component, &task_index)) {
        return Malformed(stmt, "bad target '<comp>:<task>'");
      }
      if (!ParseU64(Trim(body.substr(at + 1)), &at_count)) {
        return Malformed(stmt, "bad " + verb + " count");
      }
      if (verb == "kill") {
        script.KillAt(component, task_index, at_count);
      } else {
        script.StallAt(component, task_index, at_count);
      }
    } else if (verb == "kill_worker") {
      const size_t at = body.find('@');
      if (at == std::string::npos) return Malformed(stmt, "expected '@<seq>'");
      int rank = 0;
      uint64_t seq = 0;
      if (!ParseInt(Trim(body.substr(0, at)), &rank)) return Malformed(stmt, "bad rank");
      if (!ParseU64(Trim(body.substr(at + 1)), &seq) || seq == 0) {
        return Malformed(stmt, "bad source sequence (1-based)");
      }
      script.KillWorkerAt(rank, seq);
    } else if (verb == "migrate") {
      // migrate:<comp>:<task>-><rank>@<seq>, ASCII "->" or UTF-8 "→".
      size_t arrow = body.find("->");
      size_t arrow_len = 2;
      if (arrow == std::string::npos) {
        arrow = body.find("\xe2\x86\x92");
        arrow_len = 3;
      }
      if (arrow == std::string::npos) return Malformed(stmt, "expected '-><rank>'");
      const size_t at = body.find('@', arrow);
      if (at == std::string::npos) return Malformed(stmt, "expected '@<seq>'");
      MigrateAction action;
      if (!ParseEndpoint(Trim(body.substr(0, arrow)), &action.component, &action.task_index)) {
        return Malformed(stmt, "bad task '<comp>:<task>'");
      }
      if (!ParseInt(Trim(body.substr(arrow + arrow_len, at - arrow - arrow_len)),
                    &action.target_worker)) {
        return Malformed(stmt, "bad target rank");
      }
      uint64_t seq = 0;
      if (!ParseU64(Trim(body.substr(at + 1)), &seq) || seq == 0) {
        return Malformed(stmt, "bad source sequence (1-based)");
      }
      action.at_seq = seq;
      script.MigrateAt(action.component, action.task_index, action.target_worker, action.at_seq);
    } else if (verb == "drop") {
      const Status s = ParseLinkFault(LinkFaultKind::kDrop, stmt, body, &script);
      if (!s.ok()) return s;
    } else if (verb == "dup") {
      const Status s = ParseLinkFault(LinkFaultKind::kDuplicate, stmt, body, &script);
      if (!s.ok()) return s;
    } else if (verb == "delay") {
      const Status s = ParseLinkFault(LinkFaultKind::kDelay, stmt, body, &script);
      if (!s.ok()) return s;
    } else if (verb == "disconnect") {
      const Status s = ParseLinkFault(LinkFaultKind::kDisconnect, stmt, body, &script);
      if (!s.ok()) return s;
    } else {
      return Malformed(stmt, "unknown verb '" + verb + "'");
    }
  }
  return script;
}

}  // namespace dssj::stream
