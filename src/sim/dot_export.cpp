#include "sim/dot_export.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>

namespace ksa {

namespace {

std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

}  // namespace

void run_to_dot(std::ostream& out, const Run& run, const DotOptions& options) {
    out << "digraph run {\n";
    out << "  rankdir=LR;\n  node [shape=circle, fontsize=9];\n";
    out << "  label=\"" << escape(run.algorithm) << " (n=" << run.n
        << ")\";\n";

    const std::size_t limit = std::min(options.max_steps, run.steps.size());

    // Lane anchors.
    for (ProcessId p = 1; p <= run.n; ++p) {
        out << "  p" << p << "_0 [label=\"p" << p << "\", shape=plaintext];\n";
    }

    // Step nodes per process, chained along the lane.
    std::map<ProcessId, int> last_index;  // per process: last node index
    std::map<MessageId, std::string> send_node;
    for (std::size_t i = 0; i < limit; ++i) {
        const StepRecord& s = run.steps[i];
        const int idx = ++last_index[s.process];
        std::ostringstream node;
        node << 'p' << s.process << '_' << idx;

        std::ostringstream label;
        label << 't' << s.time;
        if (s.decision) label << "\\nD=" << *s.decision;
        if (options.show_digests) label << "\\n" << s.digest_after;

        out << "  " << node.str() << " [label=\"" << escape(label.str())
            << '"';
        if (s.decision) out << ", style=filled, fillcolor=palegreen";
        if (s.final_crash_step) out << ", style=filled, fillcolor=lightcoral";
        out << "];\n";
        out << "  p" << s.process << '_' << idx - 1 << " -> " << node.str()
            << " [style=dotted, arrowhead=none];\n";

        for (const Message& m : s.sent) send_node[m.id] = node.str();
        for (const Message& m : s.delivered) {
            auto it = send_node.find(m.id);
            if (it == send_node.end()) continue;  // sent beyond the cut
            out << "  " << it->second << " -> " << node.str();
            if (options.show_payloads)
                out << " [label=\"" << escape(m.payload->to_string())
                    << "\", fontsize=8]";
            out << ";\n";
        }
    }
    out << "}\n";
}

std::string run_to_dot(const Run& run, const DotOptions& options) {
    std::ostringstream out;
    run_to_dot(out, run, options);
    return out.str();
}

}  // namespace ksa
