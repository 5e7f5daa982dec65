#include "sim/serialize.hpp"

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

void write_sample(std::ostream& out, const FdSample& s) {
    out << ' ' << s.quorum.size();
    for (ProcessId q : s.quorum) out << ' ' << q;
    out << ' ' << s.leaders.size();
    for (ProcessId l : s.leaders) out << ' ' << l;
}

FdSample read_sample(std::istringstream& in) {
    FdSample s;
    std::size_t nq = 0, nl = 0;
    in >> nq;
    s.quorum.resize(nq);
    for (auto& q : s.quorum) in >> q;
    in >> nl;
    s.leaders.resize(nl);
    for (auto& l : s.leaders) in >> l;
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

Message read_message(std::istringstream& in) {
    Message m;
    Payload payload;
    std::string tag;
    std::size_t ni = 0, nl = 0;
    in >> m.id >> m.from >> m.to >> m.sent_at >> tag >> ni;
    payload.tag = decode(tag);
    payload.ints.resize(ni);
    for (auto& v : payload.ints) in >> v;
    in >> nl;
    payload.lists.resize(nl);
    for (auto& list : payload.lists) {
        std::size_t len = 0;
        in >> len;
        list.resize(len);
        for (auto& v : list) in >> v;
    }
    if (!in) throw UsageError("read_run: malformed message line");
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

FaultAction read_fault(std::istringstream& in) {
    FaultAction a;
    std::string sub;
    in >> sub;
    if (sub == "d") {
        a.kind = FaultAction::Kind::kDropMessage;
        in >> a.message;
    } else if (sub == "u") {
        a.kind = FaultAction::Kind::kDuplicateMessage;
        in >> a.message;
    } else if (sub == "c") {
        a.kind = FaultAction::Kind::kCrashProcess;
        std::size_t omits = 0;
        in >> a.process >> omits;
        for (std::size_t i = 0; i < omits; ++i) {
            ProcessId q = 0;
            in >> q;
            a.omit_to.insert(q);
        }
    } else if (sub == "m") {
        a.kind = FaultAction::Kind::kCorruptMessage;
        in >> a.message >> a.corrupt_seed;
    } else if (sub == "e") {
        a.kind = FaultAction::Kind::kEquivocate;
        in >> a.message >> a.corrupt_seed;
    } else {
        throw UsageError("read_run: unknown fault subkind '" + sub + "'");
    }
    if (!in) throw UsageError("read_run: malformed fault line");
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
        std::istringstream ls(line);
        std::string kind;
        ls >> kind;
        if (kind == "end") {
            done = true;
        } else if (kind == "n") {
            ls >> run.n;
        } else if (kind == "algo") {
            std::string enc;
            ls >> enc;
            run.algorithm = decode(enc);
        } else if (kind == "sched") {
            std::string enc;
            ls >> enc;
            run.scheduler = decode(enc);
        } else if (kind == "stop") {
            int v = 0;
            ls >> v;
            run.stop = static_cast<StopReason>(v);
        } else if (kind == "inputs") {
            Value v;
            while (ls >> v) run.inputs.push_back(v);
        } else if (kind == "crash") {
            ProcessId p = 0;
            CrashSpec spec;
            std::size_t omits = 0;
            ls >> p >> spec.after_own_steps >> omits;
            for (std::size_t i = 0; i < omits; ++i) {
                ProcessId q = 0;
                ls >> q;
                spec.omit_to.insert(q);
            }
            run.plan.set_crash(p, spec);
        } else if (kind == "byz") {
            ProcessId p = 0;
            int corruptions = 0, equivocations = 0;
            ls >> p >> corruptions >> equivocations;
            run.plan.note_byzantine(p, corruptions, equivocations);
        } else if (kind == "fdev") {
            FdEvent e;
            ls >> e.time >> e.process;
            e.sample = read_sample(ls);
            run.fd_history.push_back(std::move(e));
        } else if (kind == "step") {
            StepRecord s;
            std::string dec;
            int final_step = 0, has_fd = 0;
            ls >> s.time >> s.process >> dec >> final_step >> has_fd;
            if (dec != "-") s.decision = std::stoi(dec);
            s.final_crash_step = final_step != 0;
            if (has_fd != 0) s.fd = read_sample(ls);
            std::string digest;
            ls >> digest;
            s.digest_after = decode(digest);
            run.steps.push_back(std::move(s));
        } else if (kind == "fault") {
            if (run.steps.empty())
                throw UsageError("read_run: fault line before any step");
            run.steps.back().faults.push_back(read_fault(ls));
        } else if (kind == "d" || kind == "s" || kind == "o" || kind == "x" ||
                   kind == "i" || kind == "t" || kind == "f") {
            if (run.steps.empty())
                throw UsageError("read_run: message line before any step");
            Message m = read_message(ls);
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

}  // namespace ksa
