#include "check/audit_file.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/chrome_trace.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace hetflow::check {

namespace {

const char* mode_tag(data::AccessMode mode) {
  return data::to_string(mode);  // "R" / "W" / "RW" / "RED"
}

data::AccessMode parse_mode(const std::string& tag) {
  if (tag == "R") {
    return data::AccessMode::Read;
  }
  if (tag == "W") {
    return data::AccessMode::Write;
  }
  if (tag == "RW") {
    return data::AccessMode::ReadWrite;
  }
  if (tag == "RED") {
    return data::AccessMode::Redux;
  }
  throw ParseError("unknown access mode '" + tag + "'");
}

trace::SpanKind parse_kind(const std::string& tag) {
  const std::optional<trace::SpanKind> kind = trace::span_kind_from_string(tag);
  if (!kind.has_value()) {
    throw ParseError("unknown span kind '" + tag + "'");
  }
  return *kind;
}

char state_tag(data::ReplicaState state) {
  return data::to_string(state)[0];  // 'I' / 'S' / 'M'
}

data::ReplicaState parse_state(char tag) {
  switch (tag) {
    case 'I':
      return data::ReplicaState::Invalid;
    case 'S':
      return data::ReplicaState::Shared;
    case 'M':
      return data::ReplicaState::Modified;
    default:
      throw ParseError(std::string("unknown replica state '") + tag + "'");
  }
}

template <typename T>
util::Json number_array(const std::vector<T>& values) {
  util::Json out = util::Json::array();
  for (const T& value : values) {
    out.push_back(static_cast<double>(value));
  }
  return out;
}

template <typename T>
std::vector<T> parse_number_array(const util::Json& json) {
  std::vector<T> out;
  out.reserve(json.as_array().size());
  for (const util::Json& value : json.as_array()) {
    out.push_back(static_cast<T>(value.as_number()));
  }
  return out;
}

/// The Chrome-trace event's tid as a row index (ParseError unless it is a
/// number in [0, 2^32)).
std::uint32_t tid_of(const util::Json& event) {
  const double tid = event.at("tid").as_number();
  if (!(tid >= 0.0 && tid < 4294967296.0)) {
    throw ParseError(util::format("Chrome trace tid %g out of range", tid));
  }
  return static_cast<std::uint32_t>(tid);
}

}  // namespace

std::string to_audit_json(const AuditRecord& record) {
  util::Json run = util::Json::object();
  run["device_count"] = record.run.device_count;
  run["node_count"] = record.run.node_count;
  run["device_memory_node"] = number_array(record.run.device_memory_node);
  run["handle_bytes"] = number_array(record.run.handle_bytes);
  run["handle_home"] = number_array(record.run.handle_home);

  util::Json tasks = util::Json::array();
  for (const TaskRecord& task : record.run.tasks) {
    util::Json entry = util::Json::object();
    entry["id"] = static_cast<std::int64_t>(task.id);
    entry["name"] = task.name;
    entry["device"] = static_cast<std::int64_t>(task.device);
    entry["start"] = task.start;
    entry["end"] = task.end;
    entry["completed"] = task.completed;
    util::Json accesses = util::Json::array();
    for (const data::Access& access : task.accesses) {
      util::Json one = util::Json::object();
      one["data"] = static_cast<std::int64_t>(access.data);
      one["mode"] = mode_tag(access.mode);
      accesses.push_back(std::move(one));
    }
    entry["accesses"] = std::move(accesses);
    entry["deps"] = number_array(task.dependencies);
    tasks.push_back(std::move(entry));
  }
  run["tasks"] = std::move(tasks);

  util::Json spans = util::Json::array();
  for (const trace::Span& span : record.run.spans) {
    util::Json entry = util::Json::object();
    entry["task"] = static_cast<std::int64_t>(span.task_id);
    entry["name"] = span.name;
    entry["device"] = static_cast<std::int64_t>(span.device);
    entry["start"] = span.start;
    entry["end"] = span.end;
    entry["kind"] = trace::to_string(span.kind);
    spans.push_back(std::move(entry));
  }
  run["spans"] = std::move(spans);

  util::Json directory = util::Json::object();
  directory["node_count"] = record.directory.node_count;
  directory["handle_bytes"] = number_array(record.directory.handle_bytes);
  directory["capacity_bytes"] = number_array(record.directory.capacity_bytes);
  directory["claimed_resident_bytes"] =
      number_array(record.directory.claimed_resident_bytes);
  std::string states;
  states.reserve(record.directory.states.size());
  for (data::ReplicaState state : record.directory.states) {
    states.push_back(state_tag(state));
  }
  directory["states"] = std::move(states);

  util::Json doc = util::Json::object();
  doc["format"] = "hetflow-audit";
  doc["version"] = 1;
  doc["run"] = std::move(run);
  doc["directory"] = std::move(directory);
  return doc.dump_pretty();
}

AuditRecord parse_audit_json(const std::string& text) {
  const util::Json doc = util::Json::parse(text);
  if (!doc.is_object() || !doc.contains("format") ||
      doc.at("format").as_string() != "hetflow-audit") {
    throw ParseError("not a hetflow audit file (missing format marker)");
  }
  if (doc.at("version").as_number() != 1) {
    throw ParseError("unsupported audit file version");
  }
  AuditRecord record;
  const util::Json& run = doc.at("run");
  record.run.device_count =
      static_cast<std::size_t>(run.at("device_count").as_number());
  record.run.node_count =
      static_cast<std::size_t>(run.at("node_count").as_number());
  record.run.device_memory_node =
      parse_number_array<std::uint32_t>(run.at("device_memory_node"));
  record.run.handle_bytes =
      parse_number_array<std::uint64_t>(run.at("handle_bytes"));
  record.run.handle_home =
      parse_number_array<std::uint32_t>(run.at("handle_home"));
  for (const util::Json& entry : run.at("tasks").as_array()) {
    TaskRecord task;
    task.id = static_cast<std::uint64_t>(entry.at("id").as_number());
    task.name = entry.at("name").as_string();
    task.device = static_cast<std::uint32_t>(entry.at("device").as_number());
    task.start = entry.at("start").as_number();
    task.end = entry.at("end").as_number();
    task.completed = entry.at("completed").as_bool();
    for (const util::Json& one : entry.at("accesses").as_array()) {
      task.accesses.push_back(
          {static_cast<data::DataId>(one.at("data").as_number()),
           parse_mode(one.at("mode").as_string())});
    }
    task.dependencies = parse_number_array<std::uint64_t>(entry.at("deps"));
    record.run.tasks.push_back(std::move(task));
  }
  for (const util::Json& entry : run.at("spans").as_array()) {
    trace::Span span;
    span.task_id = static_cast<std::uint64_t>(entry.at("task").as_number());
    span.name = entry.at("name").as_string();
    span.device = static_cast<hw::DeviceId>(entry.at("device").as_number());
    span.start = entry.at("start").as_number();
    span.end = entry.at("end").as_number();
    span.kind = parse_kind(entry.at("kind").as_string());
    record.run.add_owned_span(span);
  }

  const util::Json& directory = doc.at("directory");
  record.directory.node_count =
      static_cast<std::size_t>(directory.at("node_count").as_number());
  record.directory.handle_bytes =
      parse_number_array<std::uint64_t>(directory.at("handle_bytes"));
  record.directory.capacity_bytes =
      parse_number_array<std::uint64_t>(directory.at("capacity_bytes"));
  record.directory.claimed_resident_bytes = parse_number_array<std::uint64_t>(
      directory.at("claimed_resident_bytes"));
  const std::string& states = directory.at("states").as_string();
  const std::size_t expected =
      record.directory.handle_count() * record.directory.node_count;
  if (states.size() != expected) {
    throw ParseError(util::format(
        "directory state string has %zu entries, expected %zu (handles x "
        "nodes)",
        states.size(), expected));
  }
  record.directory.states.reserve(states.size());
  for (char tag : states) {
    record.directory.states.push_back(parse_state(tag));
  }
  return record;
}

RunRecord parse_chrome_trace(const std::string& text) {
  const util::Json doc = util::Json::parse(text);
  if (!doc.is_object() || !doc.contains("traceEvents")) {
    throw ParseError("not a Chrome trace (missing traceEvents)");
  }
  RunRecord run;
  std::size_t span_devices = 0;
  for (const util::Json& event : doc.at("traceEvents").as_array()) {
    const std::string& ph = event.at("ph").as_string();
    if (ph == "M") {
      if (event.at("name").as_string() == "thread_name") {
        const std::uint32_t tid = tid_of(event);
        if (tid < obs::kTransferTidBase) {  // a device row
          run.device_count = std::max(run.device_count, std::size_t{tid} + 1);
        }
      }
      continue;
    }
    if (ph != "X" || !event.contains("args") ||
        !event.at("args").contains("kind")) {
      continue;  // instants, flow arrows, transfer tracks
    }
    const util::Json& args = event.at("args");
    trace::Span span;
    span.name = event.at("name").as_string();
    span.device = tid_of(event);
    span.start = event.at("ts").as_number() / 1e6;
    span.end = span.start + event.at("dur").as_number() / 1e6;
    if (args.contains("task")) {
      span.task_id = static_cast<std::uint64_t>(args.at("task").as_number());
    }
    span.kind = parse_kind(args.at("kind").as_string());
    span_devices = std::max(span_devices, std::size_t{span.device} + 1);
    run.add_owned_span(span);
  }
  if (run.device_count == 0) {
    run.device_count = span_devices;
  }
  return run;
}

void save_audit(const AuditRecord& record, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw Error("cannot open '" + path + "' for writing");
  }
  out << to_audit_json(record);
  if (!out) {
    throw Error("failed writing '" + path + "'");
  }
}

AuditRecord load_audit(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_audit_json(buffer.str());
}

}  // namespace hetflow::check
