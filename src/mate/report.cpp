#include "mate/report.hpp"

#include <ostream>

#include "util/strings.hpp"

namespace ripple::mate {
namespace {

const char* status_name(WireStatus s) {
  switch (s) {
    case WireStatus::Found: return "found";
    case WireStatus::NoMate: return "no-mate";
    case WireStatus::Unmaskable: return "unmaskable";
    case WireStatus::PathBudget: return "path-budget";
  }
  return "?";
}

} // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strprintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_search_json(const netlist::Netlist& n, const SearchResult& result,
                       std::ostream& os) {
  os << "{\n  \"module\": \"" << json_escape(n.name()) << "\",\n";
  os << "  \"totals\": {\"mates\": " << result.total_mates
     << ", \"merged_mates\": " << result.set.mates.size()
     << ", \"candidates\": " << result.total_candidates
     << ", \"unmaskable_wires\": " << result.unmaskable_wires << "},\n";

  os << "  \"wires\": [\n";
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const WireOutcome& o = result.outcomes[i];
    os << "    {\"wire\": \"" << json_escape(n.wire(o.wire).name)
       << "\", \"status\": \"" << status_name(o.status)
       << "\", \"cone_gates\": " << o.cone_gates
       << ", \"paths\": " << o.num_paths
       << ", \"candidates\": " << o.candidates_tried
       << ", \"mates\": " << o.mates_found << "}"
       << (i + 1 < result.outcomes.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  os << "  \"mates\": [\n";
  for (std::size_t m = 0; m < result.set.mates.size(); ++m) {
    const Mate& mate = result.set.mates[m];
    os << "    {\"literals\": [";
    const auto& lits = mate.cube.literals();
    for (std::size_t l = 0; l < lits.size(); ++l) {
      os << (l ? ", " : "") << "{\"wire\": \""
         << json_escape(n.wire(lits[l].wire).name) << "\", \"value\": "
         << (lits[l].value ? "true" : "false") << "}";
    }
    os << "], \"masks\": [";
    for (std::size_t w = 0; w < mate.masked_wires.size(); ++w) {
      os << (w ? ", " : "") << "\""
         << json_escape(n.wire(mate.masked_wires[w]).name) << "\"";
    }
    os << "]}" << (m + 1 < result.set.mates.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void write_mate_csv(const netlist::Netlist& n, const MateSet& set,
                    const EvalResult* eval, std::ostream& os) {
  os << "mate,inputs,masked_wires,cube";
  if (eval != nullptr) os << ",triggers,masked_total";
  os << "\n";
  for (std::size_t m = 0; m < set.mates.size(); ++m) {
    const Mate& mate = set.mates[m];
    std::string cube = mate.cube.to_string(n);
    // CSV-quote the cube (it contains no quotes itself).
    os << m << ',' << mate.num_inputs() << ',' << mate.masked_wires.size()
       << ",\"" << cube << "\"";
    if (eval != nullptr) {
      os << ',' << eval->per_mate[m].triggers << ','
         << eval->per_mate[m].masked_total;
    }
    os << "\n";
  }
}

} // namespace ripple::mate
