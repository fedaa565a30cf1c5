// hetflow-verify: on-disk audit snapshots ("hetflow audit v1").
//
// An AuditRecord serializes to a single JSON document so a run executed
// elsewhere (hetflow_run --audit-out audit.json) can be checked offline
// with `hetflow_check --audit audit.json`. The span timeline of a Chrome
// trace (hetflow_run --chrome-trace) is read back the same way for
// `hetflow_check --trace`.
#pragma once

#include <string>

#include "check/record.hpp"

namespace hetflow::check {

/// Serializes the audit record to the v1 JSON format.
std::string to_audit_json(const AuditRecord& record);

/// Parses the v1 JSON format; throws ParseError on malformed input.
AuditRecord parse_audit_json(const std::string& text);

/// Reconstructs the span list of a Chrome trace written by
/// obs::chrome_trace_json. Spans are the "X" events whose args carry a
/// span kind; metadata, instants, flow arrows and transfer-track events
/// are skipped. device_count comes from the device rows' thread_name
/// metadata, or from the highest span device when there is none. Span
/// names are owned by the returned record. Throws ParseError on
/// malformed input.
RunRecord parse_chrome_trace(const std::string& text);

/// File-based convenience wrappers.
void save_audit(const AuditRecord& record, const std::string& path);
AuditRecord load_audit(const std::string& path);

}  // namespace hetflow::check
