#include "sim/serialize.hpp"

#include <charconv>
#include <sstream>
#include <utility>

namespace ksa {

namespace {

/// Percent-encodes spaces, newlines and '%' so every token is
/// whitespace-free.
std::string encode(const std::string& s) {
    std::string out;
    for (char c : s) {
        switch (c) {
            case ' ': out += "%20"; break;
            case '\n': out += "%0A"; break;
            case '%': out += "%25"; break;
            default: out += c;
        }
    }
    return out.empty() ? "%00" : out;
}

std::string decode(const std::string& s) {
    if (s == "%00") return "";
    std::string out;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '%' && i + 2 < s.size()) {
            const std::string hex = s.substr(i + 1, 2);
            if (hex == "20") out += ' ';
            else if (hex == "0A") out += '\n';
            else if (hex == "25") out += '%';
            else throw UsageError("read_run: bad escape %" + hex);
            i += 2;
        } else {
            out += s[i];
        }
    }
    return out;
}

/// The fields of one record line, read left to right.  Every read is
/// checked: the first missing or unparsable field throws UsageError
/// naming the record, so a count read from the file never drives a loop
/// over a failed stream, and nothing is sized from a count.
class Fields {
public:
    explicit Fields(const std::string& line) : in_(line) { in_ >> kind_; }

    const std::string& kind() const { return kind_; }

    template <typename T>
    T next() {
        T v{};
        if (!(in_ >> v)) fail();
        return v;
    }

    /// A count, then that many values, read one at a time.
    template <typename T>
    std::vector<T> counted() {
        std::vector<T> out;
        for (auto left = next<std::size_t>(); left > 0; --left)
            out.push_back(next<T>());
        return out;
    }

    /// True when nothing but whitespace is left on the line.
    bool at_end() { return (in_ >> std::ws).eof(); }

    /// Rejects anything left on the line after its last field.
    void finish() {
        if (!at_end()) fail();
    }

    [[noreturn]] void fail() const {
        throw UsageError("read_run: malformed '" + kind_ + "' line");
    }

private:
    std::istringstream in_;
    std::string kind_;
};

void write_sample(std::ostream& out, const FdSample& s) {
    out << ' ' << s.quorum.size();
    for (ProcessId q : s.quorum) out << ' ' << q;
    out << ' ' << s.leaders.size();
    for (ProcessId l : s.leaders) out << ' ' << l;
}

FdSample read_sample(Fields& in) {
    FdSample s;
    s.quorum = in.counted<ProcessId>();
    s.leaders = in.counted<ProcessId>();
    return s;
}

void write_message(std::ostream& out, char kind, const Message& m) {
    out << kind << ' ' << m.id << ' ' << m.from << ' ' << m.to << ' '
        << m.sent_at << ' ' << encode(m.payload->tag) << ' '
        << m.payload->ints.size();
    for (int v : m.payload->ints) out << ' ' << v;
    out << ' ' << m.payload->lists.size();
    for (const auto& list : m.payload->lists) {
        out << ' ' << list.size();
        for (int v : list) out << ' ' << v;
    }
    out << '\n';
}

Message read_message(Fields& in) {
    Message m;
    Payload payload;
    m.id = in.next<MessageId>();
    m.from = in.next<ProcessId>();
    m.to = in.next<ProcessId>();
    m.sent_at = in.next<Time>();
    payload.tag = decode(in.next<std::string>());
    payload.ints = in.counted<int>();
    for (auto lists = in.next<std::size_t>(); lists > 0; --lists)
        payload.lists.push_back(in.counted<int>());
    m.payload = std::move(payload);
    return m;
}

void write_fault(std::ostream& out, const FaultAction& a) {
    out << "fault ";
    switch (a.kind) {
        case FaultAction::Kind::kDropMessage:
            out << "d " << a.message;
            break;
        case FaultAction::Kind::kDuplicateMessage:
            out << "u " << a.message;
            break;
        case FaultAction::Kind::kCrashProcess:
            out << "c " << a.process << ' ' << a.omit_to.size();
            for (ProcessId q : a.omit_to) out << ' ' << q;
            break;
        case FaultAction::Kind::kCorruptMessage:
            out << "m " << a.message << ' ' << a.corrupt_seed;
            break;
        case FaultAction::Kind::kEquivocate:
            out << "e " << a.message << ' ' << a.corrupt_seed;
            break;
    }
    out << '\n';
}

FaultAction read_fault(Fields& in) {
    FaultAction a;
    const std::string sub = in.next<std::string>();
    if (sub == "d") {
        a.kind = FaultAction::Kind::kDropMessage;
        a.message = in.next<MessageId>();
    } else if (sub == "u") {
        a.kind = FaultAction::Kind::kDuplicateMessage;
        a.message = in.next<MessageId>();
    } else if (sub == "c") {
        a.kind = FaultAction::Kind::kCrashProcess;
        a.process = in.next<ProcessId>();
        for (ProcessId q : in.counted<ProcessId>()) a.omit_to.insert(q);
    } else if (sub == "m" || sub == "e") {
        a.kind = sub == "m" ? FaultAction::Kind::kCorruptMessage
                            : FaultAction::Kind::kEquivocate;
        a.message = in.next<MessageId>();
        a.corrupt_seed = in.next<std::uint64_t>();
    } else {
        throw UsageError("read_run: unknown fault subkind '" + sub + "'");
    }
    return a;
}

}  // namespace

void write_run(std::ostream& out, const Run& run) {
    out << "KSARUN 1\n";
    out << "n " << run.n << '\n';
    out << "algo " << encode(run.algorithm) << '\n';
    if (!run.scheduler.empty())
        out << "sched " << encode(run.scheduler) << '\n';
    out << "stop " << static_cast<int>(run.stop) << '\n';
    out << "inputs";
    for (Value v : run.inputs) out << ' ' << v;
    out << '\n';
    for (ProcessId p = 1; p <= run.n; ++p) {
        if (!run.plan.is_faulty(p)) continue;
        const CrashSpec& spec = run.plan.spec(p);
        out << "crash " << p << ' ' << spec.after_own_steps << ' '
            << spec.omit_to.size();
        for (ProcessId q : spec.omit_to) out << ' ' << q;
        out << '\n';
    }
    for (ProcessId p : run.plan.byzantine()) {
        const ByzantineSpec& spec = run.plan.byzantine_spec(p);
        out << "byz " << p << ' ' << spec.corruptions << ' '
            << spec.equivocations << '\n';
    }
    for (const FdEvent& e : run.fd_history) {
        out << "fdev " << e.time << ' ' << e.process;
        write_sample(out, e.sample);
        out << '\n';
    }
    for (const StepRecord& s : run.steps) {
        out << "step " << s.time << ' ' << s.process << ' ';
        if (s.decision)
            out << *s.decision;
        else
            out << '-';
        out << ' ' << (s.final_crash_step ? 1 : 0) << ' '
            << (s.fd ? 1 : 0);
        if (s.fd) write_sample(out, *s.fd);
        out << ' ' << encode(s.digest_after) << '\n';
        for (const FaultAction& a : s.faults) write_fault(out, a);
        for (const Message& m : s.delivered) write_message(out, 'd', m);
        for (const Message& m : s.sent) write_message(out, 's', m);
        for (const Message& m : s.omitted) write_message(out, 'o', m);
        for (const Message& m : s.dropped) write_message(out, 'x', m);
        for (const Message& m : s.injected) write_message(out, 'i', m);
        for (const Message& m : s.tampered) write_message(out, 't', m);
        for (const Message& m : s.forged) write_message(out, 'f', m);
    }
    out << "end\n";
}

std::string run_to_string(const Run& run) {
    std::ostringstream out;
    write_run(out, run);
    return out.str();
}

Run read_run(std::istream& in) {
    std::string line;
    if (!std::getline(in, line) || line != "KSARUN 1")
        throw UsageError("read_run: missing KSARUN 1 header");

    Run run;
    bool done = false;
    while (!done && std::getline(in, line)) {
        if (line.empty()) continue;
        Fields f(line);
        const std::string& kind = f.kind();
        if (kind == "end") {
            done = true;
        } else if (kind == "n") {
            run.n = f.next<int>();
        } else if (kind == "algo") {
            run.algorithm = decode(f.next<std::string>());
        } else if (kind == "sched") {
            run.scheduler = decode(f.next<std::string>());
        } else if (kind == "stop") {
            const int v = f.next<int>();
            if (v < static_cast<int>(StopReason::kQuiescent) ||
                v > static_cast<int>(StopReason::kStepLimit))
                throw UsageError("read_run: unknown stop reason " +
                                 std::to_string(v));
            run.stop = static_cast<StopReason>(v);
        } else if (kind == "inputs") {
            while (!f.at_end()) run.inputs.push_back(f.next<Value>());
        } else if (kind == "crash") {
            const ProcessId p = f.next<ProcessId>();
            CrashSpec spec;
            spec.after_own_steps = f.next<int>();
            for (ProcessId q : f.counted<ProcessId>()) spec.omit_to.insert(q);
            run.plan.set_crash(p, spec);
        } else if (kind == "byz") {
            const ProcessId p = f.next<ProcessId>();
            const int corruptions = f.next<int>();
            const int equivocations = f.next<int>();
            run.plan.note_byzantine(p, corruptions, equivocations);
        } else if (kind == "fdev") {
            FdEvent e;
            e.time = f.next<Time>();
            e.process = f.next<ProcessId>();
            e.sample = read_sample(f);
            run.fd_history.push_back(std::move(e));
        } else if (kind == "step") {
            StepRecord s;
            s.time = f.next<Time>();
            s.process = f.next<ProcessId>();
            const std::string dec = f.next<std::string>();
            if (dec != "-") {
                Value v = 0;
                const char* end = dec.data() + dec.size();
                const auto [ptr, ec] = std::from_chars(dec.data(), end, v);
                if (ec != std::errc() || ptr != end) f.fail();
                s.decision = v;
            }
            s.final_crash_step = f.next<int>() != 0;
            if (f.next<int>() != 0) s.fd = read_sample(f);
            s.digest_after = decode(f.next<std::string>());
            run.steps.push_back(std::move(s));
        } else if (kind == "fault") {
            if (run.steps.empty())
                throw UsageError("read_run: fault line before any step");
            run.steps.back().faults.push_back(read_fault(f));
        } else if (kind == "d" || kind == "s" || kind == "o" || kind == "x" ||
                   kind == "i" || kind == "t" || kind == "f") {
            if (run.steps.empty())
                throw UsageError("read_run: message line before any step");
            Message m = read_message(f);
            if (kind == "d")
                run.steps.back().delivered.push_back(std::move(m));
            else if (kind == "s")
                run.steps.back().sent.push_back(std::move(m));
            else if (kind == "o")
                run.steps.back().omitted.push_back(std::move(m));
            else if (kind == "x")
                run.steps.back().dropped.push_back(std::move(m));
            else if (kind == "i")
                run.steps.back().injected.push_back(std::move(m));
            else if (kind == "t")
                run.steps.back().tampered.push_back(std::move(m));
            else
                run.steps.back().forged.push_back(std::move(m));
        } else {
            throw UsageError("read_run: unknown record '" + kind + "'");
        }
        f.finish();
    }
    if (!done) throw UsageError("read_run: missing end record");
    return run;
}

Run run_from_string(const std::string& text) {
    std::istringstream in(text);
    return read_run(in);
}

std::vector<StepChoice> schedule_of(const Run& run) {
    std::vector<StepChoice> out;
    for (const StepRecord& s : run.steps) {
        StepChoice c;
        c.process = s.process;
        c.faults = s.faults;
        for (const Message& m : s.delivered) c.deliver.push_back(m.id);
        out.push_back(std::move(c));
    }
    return out;
}

int parse_int_flag(std::string_view flag, std::string_view text) {
    const char* last = text.data() + text.size();
    int value = 0;
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc() || end != last)
        throw UsageError("--" + std::string(flag) +
                         " needs an integer in int range, got '" +
                         std::string(text) + "'");
    return value;
}

}  // namespace ksa
