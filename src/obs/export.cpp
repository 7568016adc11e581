#include "obs/export.h"

#include <algorithm>
#include <cstdio>

#include "net/fault_plane.h"  // fault_kind_name (header-only; no dgr_net link)
#include "obs/json.h"

namespace dgr::obs {

namespace {

const char* plane_name(Plane p) { return p == Plane::kR ? "R" : "T"; }

}  // namespace

std::string to_jsonl(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 80);
  for (const TraceEvent& e : events) {
    out += '{';
    append_kv(out, "ts", e.ts);
    append_kv(out, "type", event_name(e.type));
    append_kv(out, "plane", plane_name(e.plane));
    append_kv(out, "pe", e.pe);
    append_kv(out, "cycle", e.cycle);
    append_kv(out, "a", e.a);
    append_kv(out, "b", e.b, false);
    out += "}\n";
  }
  return out;
}

std::vector<TraceEvent> from_jsonl(const std::string& text) {
  std::vector<TraceEvent> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string_view line(text.data() + pos, nl - pos);
    pos = nl + 1;
    JsonReader j(line);
    const JsonValue& o = j.root();
    TraceEvent e;
    std::string_view type, plane;
    std::uint64_t pe = 0;
    if (!j.ok() || !j.read(o, "ts", &e.ts) || !j.read(o, "type", &type) ||
        !j.read(o, "plane", &plane) || !j.read(o, "pe", &pe) ||
        !j.read(o, "cycle", &e.cycle) || !j.read(o, "a", &e.a) ||
        !j.read(o, "b", &e.b))
      continue;
    std::size_t t = 0;
    while (t < kNumEventTypes && type != kEventNames[t]) ++t;
    if (t == kNumEventTypes) continue;
    e.type = static_cast<EventType>(t);
    e.plane = plane == "T" ? Plane::kT : Plane::kR;
    e.pe = static_cast<std::uint16_t>(pe);
    out.push_back(e);
  }
  return out;
}

namespace {

// Chrome trace_event helpers. pid 0 is the in-process engine (or the
// cluster controller); pid w+1 is worker w. tid = PE, tid = num_pes is the
// controller/engine track within each process lane.

// A process-name (tid < 0) or thread-name metadata record.
void chrome_meta(std::string& out, std::uint32_t pid, std::int64_t tid,
                 std::string_view name) {
  out += '{';
  append_kv(out, "name", tid < 0 ? "process_name" : "thread_name");
  append_kv(out, "ph", "M");
  append_kv(out, "pid", pid);
  if (tid >= 0) append_kv(out, "tid", tid);
  out += "\"args\":{";
  append_kv(out, "name", name, false);
  out += "}},\n";
}

// One timeline record: a duration span ('X', with `dur`), a thread-scoped
// instant ('i') or a counter sample ('C', process-wide: no tid).
void chrome_event(std::string& out, char ph, std::string_view name,
                  std::uint64_t ts, std::uint64_t dur, std::uint32_t pid,
                  std::uint32_t tid, std::string_view args) {
  out += '{';
  append_kv(out, "name", name);
  append_kv(out, "ph", std::string_view(&ph, 1));
  if (ph == 'i') append_kv(out, "s", "t");
  append_kv(out, "ts", ts);
  if (ph == 'X') append_kv(out, "dur", dur ? dur : 1);
  append_kv(out, "pid", pid);
  if (ph != 'C') append_kv(out, "tid", tid);
  append_key(out, "args");
  out += args;
  out += "},\n";
}

const EventChrome& chrome_row(EventType t) {
  return kEventChrome[static_cast<std::size_t>(t)];
}

// The args object of `e`: the payload words its schema row names.
std::string chrome_args(const TraceEvent& e) {
  const EventChrome& row = chrome_row(e.type);
  std::string args = "{";
  auto arg = [&](const char* key, std::uint64_t v) {
    if (!key) return;
    if (args.size() > 1) args += ',';
    append_kv(args, key, v, false);
  };
  arg(row.a, e.a);
  if (e.type == EventType::kSessionChurn) {  // b packs op<<32 | hot
    arg("op", e.b >> 32);
    arg("hot", e.b & 0xffffffffull);
  } else {
    arg(row.b, e.b);
  }
  return args + '}';
}

// The row's label, suffixed with what the payload names: the health or fault
// kind in `a`, the deadlocked vertex (pe:idx), or the plane on *Plane tracks.
std::string chrome_instant_name(const TraceEvent& e) {
  const EventChrome& row = chrome_row(e.type);
  std::string name = row.label;
  if (e.type == EventType::kHealthWarning) {
    name += health_kind_name(static_cast<HealthKind>(
        std::min<std::uint64_t>(e.a, kNumHealthKinds)));
  } else if (e.type == EventType::kFaultInjected) {
    name += fault_kind_name(static_cast<FaultKind>(
        std::min<std::uint64_t>(e.a, kNumFaultKinds)));
  } else if (e.type == EventType::kDeadlockVertex) {
    name += ' ' + std::to_string(e.pe) + ':' + std::to_string(e.a);
  } else if (row.track == ChromeTrack::kCtlPlane ||
             row.track == ChromeTrack::kPePlane) {
    name += ' ';
    name += plane_name(e.plane);
  }
  return name;
}

// One process lane's events: pair cycle and phase begin/end events into
// spans on the controller track, chart wave fronts as counters, draw every
// other event as an instant from its schema row, and close anything a
// truncated trace left open.
void chrome_emit_events(std::string& out, const std::vector<TraceEvent>& events,
                        std::uint32_t num_pes, std::uint32_t pid) {
  const std::uint32_t ctl = num_pes;  // controller track id
  const std::string phase_label = chrome_row(EventType::kPhaseEnd).label;
  const char* cycle_label = chrome_row(EventType::kCycleEnd).label;
  std::uint64_t cycle_ts = 0, cycle_no = 0, last_ts = 0;
  bool cycle_open = false;
  std::uint64_t phase_ts[2] = {0, 0};
  bool phase_open[2] = {false, false};
  char name[48];

  for (const TraceEvent& e : events) {
    last_ts = e.ts;
    const int pl = static_cast<int>(e.plane);
    switch (e.type) {
      case EventType::kCycleStart:
        cycle_ts = e.ts;
        cycle_no = e.cycle;
        cycle_open = true;
        continue;
      case EventType::kCycleEnd:
        std::snprintf(name, sizeof(name), "%s %llu", cycle_label,
                      (unsigned long long)e.cycle);
        chrome_event(out, 'X', name, cycle_open ? cycle_ts : e.ts,
                     cycle_open ? e.ts - cycle_ts : 0, pid, ctl,
                     chrome_args(e));
        cycle_open = false;
        continue;
      case EventType::kPhaseBegin:
        phase_ts[pl] = e.ts;
        phase_open[pl] = true;
        continue;
      case EventType::kPhaseEnd:
        chrome_event(out, 'X', phase_label + plane_name(e.plane),
                     phase_open[pl] ? phase_ts[pl] : e.ts,
                     phase_open[pl] ? e.ts - phase_ts[pl] : 0, pid, ctl,
                     chrome_args(e));
        phase_open[pl] = false;
        continue;
      case EventType::kWaveFront:
        std::snprintf(name, sizeof(name), "%s[%s] PE %u",
                      chrome_row(e.type).label, plane_name(e.plane), e.pe);
        chrome_event(out, 'C', name, e.ts, 0, pid, 0, chrome_args(e));
        continue;
      default:
        break;
    }
    if (e.type >= EventType::kCount_) continue;
    const ChromeTrack track = chrome_row(e.type).track;
    const bool on_ctl =
        track == ChromeTrack::kCtl || track == ChromeTrack::kCtlPlane;
    chrome_event(out, 'i', chrome_instant_name(e), e.ts, 0, pid,
                 on_ctl ? ctl : e.pe, chrome_args(e));
  }
  // Close any span left open by a truncated trace.
  for (int pl = 0; pl < 2; ++pl) {
    if (!phase_open[pl]) continue;
    chrome_event(out, 'X',
                 phase_label + plane_name(static_cast<Plane>(pl)) +
                     " (unfinished)",
                 phase_ts[pl], last_ts - phase_ts[pl], pid, ctl, "{}");
  }
  if (cycle_open) {
    std::snprintf(name, sizeof(name), "%s %llu (unfinished)", cycle_label,
                  (unsigned long long)cycle_no);
    chrome_event(out, 'X', name, cycle_ts, last_ts - cycle_ts, pid, ctl, "{}");
  }
}

// One process lane: its name, PE + controller thread names, then its
// events. Worker lanes (pid > 0) own a PE slice, so only the PEs that emitted
// events get a named track there; naming every PE in every lane would
// clutter the timeline.
void chrome_lane(std::string& out, std::uint32_t pid, std::string_view name,
                 const std::vector<TraceEvent>& events, std::uint32_t num_pes) {
  chrome_meta(out, pid, -1, name);
  std::vector<bool> used(num_pes, pid == 0);
  for (const TraceEvent& e : events)
    if (e.pe < num_pes) used[e.pe] = true;
  for (std::uint32_t pe = 0; pe < num_pes; ++pe) {
    if (!used[pe]) continue;
    char pe_name[16];
    std::snprintf(pe_name, sizeof(pe_name), "PE %u", pe);
    chrome_meta(out, pid, pe, pe_name);
  }
  chrome_meta(out, pid, num_pes, "controller");
  chrome_emit_events(out, events, num_pes, pid);
}

std::string chrome_trace(
    std::string_view lane0, const std::vector<TraceEvent>& lane0_events,
    const std::vector<std::vector<TraceEvent>>& worker_events,
    std::uint32_t num_pes) {
  std::string out = "{\"traceEvents\":[\n";
  chrome_lane(out, 0, lane0, lane0_events, num_pes);
  for (std::uint32_t w = 0; w < worker_events.size(); ++w) {
    char name[24];
    std::snprintf(name, sizeof(name), "worker %u", w);
    chrome_lane(out, w + 1, name, worker_events[w], num_pes);
  }
  // Strip the trailing ",\n" so the array is valid JSON.
  if (out.size() >= 2 && out[out.size() - 2] == ',')
    out.erase(out.size() - 2, 1);
  out += "]}\n";
  return out;
}

}  // namespace

std::string to_chrome_trace(const std::vector<TraceEvent>& events,
                            std::uint32_t num_pes) {
  return chrome_trace("dgr", events, {}, num_pes);
}

std::string to_chrome_trace_cluster(
    const std::vector<TraceEvent>& controller_events,
    const std::vector<std::vector<TraceEvent>>& worker_events,
    std::uint32_t num_pes) {
  return chrome_trace("controller", controller_events, worker_events, num_pes);
}

}  // namespace dgr::obs
