#include "sim/message.hpp"

#include <sstream>

namespace ksa {

std::string Message::to_string() const {
    std::ostringstream out;
    out << from << "->" << to << ':' << payload->to_string();
    return out.str();
}

}  // namespace ksa
