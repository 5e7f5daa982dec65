#include "sim/payload.hpp"

namespace ksa {

std::string Payload::to_string() const {
    std::string s;
    TextWriter out(s);
    render(out);
    return s;
}

void Payload::render(TextWriter& out) const {
    out << tag << '(';
    for (std::size_t i = 0; i < ints.size(); ++i) {
        if (i > 0) out << ',';
        out << ints[i];
    }
    if (!lists.empty()) {
        out << '|';
        for (std::size_t i = 0; i < lists.size(); ++i) {
            if (i > 0) out << ',';
            out << '[';
            for (std::size_t j = 0; j < lists[i].size(); ++j) {
                if (j > 0) out << ',';
                out << lists[i][j];
            }
            out << ']';
        }
    }
    out << ')';
}

void Payload::fold(StateHasher& h) const {
    h.str(tag);
    h.u64(ints.size());
    for (int v : ints) h.i64(v);
    h.u64(lists.size());
    for (const auto& list : lists) {
        h.u64(list.size());
        for (int v : list) h.i64(v);
    }
}

const Payload& SharedPayload::empty() {
    static const Payload kEmpty;
    return kEmpty;
}

Payload make_payload(std::string tag, std::vector<int> ints) {
    return Payload{std::move(tag), std::move(ints), {}};
}

Payload make_payload(std::string tag, std::vector<int> ints,
                     std::vector<std::vector<int>> lists) {
    return Payload{std::move(tag), std::move(ints), std::move(lists)};
}

}  // namespace ksa
