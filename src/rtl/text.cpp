#include "socet/rtl/text.hpp"

#include <cctype>
#include <sstream>

namespace socet::rtl {

namespace {

std::string fu_kind_name(FuKind kind) {
  switch (kind) {
    case FuKind::kAdd:
      return "add";
    case FuKind::kSub:
      return "sub";
    case FuKind::kIncrement:
      return "increment";
    case FuKind::kAnd:
      return "and";
    case FuKind::kOr:
      return "or";
    case FuKind::kXor:
      return "xor";
    case FuKind::kNot:
      return "not";
    case FuKind::kShiftLeft:
      return "shl";
    case FuKind::kShiftRight:
      return "shr";
    case FuKind::kEqual:
      return "equal";
    case FuKind::kLess:
      return "less";
    case FuKind::kAlu:
      return "alu";
    case FuKind::kBuf:
      return "buf";
    case FuKind::kRandomLogic:
      return "randomlogic";
  }
  return "?";
}

FuKind fu_kind_from(const std::string& name, std::size_t line) {
  static const std::pair<const char*, FuKind> table[] = {
      {"add", FuKind::kAdd},        {"sub", FuKind::kSub},
      {"increment", FuKind::kIncrement}, {"and", FuKind::kAnd},
      {"or", FuKind::kOr},          {"xor", FuKind::kXor},
      {"not", FuKind::kNot},        {"shl", FuKind::kShiftLeft},
      {"shr", FuKind::kShiftRight}, {"equal", FuKind::kEqual},
      {"less", FuKind::kLess},      {"alu", FuKind::kAlu},
      {"buf", FuKind::kBuf},
  };
  for (const auto& [key, kind] : table) {
    if (name == key) return kind;
  }
  util::raise("parse_netlist: line " + std::to_string(line) +
              ": unknown fu kind '" + name + "'");
}

/// Pin spelled as "<kind>:<name>[.<pin><arg>]".  Names may not contain
/// whitespace (the serializer enforces this when writing).
std::string pin_token(const Netlist& n, const PinRef& pin) {
  switch (pin.comp.kind) {
    case CompKind::kPort:
      return "port:" + n.ports()[pin.comp.index].name;
    case CompKind::kRegister: {
      const std::string base = "reg:" + n.registers()[pin.comp.index].name;
      switch (pin.role) {
        case PinRole::kRegD:
          return base + ".d";
        case PinRole::kRegQ:
          return base + ".q";
        case PinRole::kRegLoad:
          return base + ".load";
        default:
          break;
      }
      break;
    }
    case CompKind::kMux: {
      const std::string base = "mux:" + n.muxes()[pin.comp.index].name;
      switch (pin.role) {
        case PinRole::kMuxData:
          return base + ".in" + std::to_string(pin.arg);
        case PinRole::kMuxSelect:
          return base + ".sel";
        case PinRole::kMuxOut:
          return base + ".out";
        default:
          break;
      }
      break;
    }
    case CompKind::kFu: {
      const std::string base = "fu:" + n.fus()[pin.comp.index].name;
      return pin.role == PinRole::kFuIn
                 ? base + ".in" + std::to_string(pin.arg)
                 : base + ".out";
    }
    case CompKind::kConstant:
      return "const:" + n.constants()[pin.comp.index].name;
  }
  util::raise("serialize_netlist: unsupported pin");
}

struct PinParser {
  const Netlist& n;

  /// Strictly numeric pin index ("in3" -> 3); anything else is a parse
  /// error rather than an escaping std::invalid_argument.
  static unsigned parse_index(const std::string& digits, std::size_t line) {
    if (digits.empty() || digits.size() > 6) {
      util::raise("parse_netlist: line " + std::to_string(line) +
                  ": bad pin index '" + digits + "'");
    }
    unsigned value = 0;
    for (char c : digits) {
      if (c < '0' || c > '9') {
        util::raise("parse_netlist: line " + std::to_string(line) +
                    ": bad pin index '" + digits + "'");
      }
      value = value * 10 + static_cast<unsigned>(c - '0');
    }
    return value;
  }

  PinRef parse(const std::string& token, std::size_t line) const {
    const auto colon = token.find(':');
    if (colon == std::string::npos) {
      util::raise("parse_netlist: line " + std::to_string(line) +
                  ": bad pin token '" + token + "'");
    }
    const std::string kind = token.substr(0, colon);
    std::string rest = token.substr(colon + 1);
    std::string pin_name;
    if (const auto dot = rest.rfind('.'); dot != std::string::npos &&
                                          kind != "port" && kind != "const") {
      pin_name = rest.substr(dot + 1);
      rest = rest.substr(0, dot);
    }
    if (kind == "port") return n.pin(n.find_port(rest));
    if (kind == "const") {
      for (std::size_t i = 0; i < n.constants().size(); ++i) {
        if (n.constants()[i].name == rest) {
          return n.const_out(ConstantId(static_cast<std::uint32_t>(i)));
        }
      }
      util::raise("parse_netlist: line " + std::to_string(line) +
                  ": unknown constant '" + rest + "'");
    }
    if (kind == "reg") {
      const RegisterId id = n.find_register(rest);
      if (pin_name == "d") return n.reg_d(id);
      if (pin_name == "q") return n.reg_q(id);
      if (pin_name == "load") return n.reg_load(id);
    }
    if (kind == "mux") {
      for (std::size_t i = 0; i < n.muxes().size(); ++i) {
        if (n.muxes()[i].name != rest) continue;
        const MuxId id(static_cast<std::uint32_t>(i));
        if (pin_name == "sel") return n.mux_select(id);
        if (pin_name == "out") return n.mux_out(id);
        if (pin_name.rfind("in", 0) == 0) {
          return n.mux_in(id, parse_index(pin_name.substr(2), line));
        }
      }
    }
    if (kind == "fu") {
      for (std::size_t i = 0; i < n.fus().size(); ++i) {
        if (n.fus()[i].name != rest) continue;
        const FuId id(static_cast<std::uint32_t>(i));
        if (pin_name == "out") return n.fu_out(id);
        if (pin_name.rfind("in", 0) == 0) {
          return n.fu_in(id, parse_index(pin_name.substr(2), line));
        }
      }
    }
    util::raise("parse_netlist: line " + std::to_string(line) +
                ": cannot resolve pin '" + token + "'");
  }
};

void check_name(const std::string& name) {
  util::require(!name.empty(), "serialize_netlist: empty component name");
  for (char c : name) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ':') {
      util::raise("serialize_netlist: name '" + name +
                  "' contains whitespace or ':'");
    }
  }
}

}  // namespace

std::string serialize_netlist(const Netlist& n) {
  std::ostringstream out;
  out << "socet-rtl v1\n";
  check_name(n.name());
  out << "netlist " << n.name() << "\n";
  for (const Port& port : n.ports()) {
    check_name(port.name);
    out << (port.dir == PortDir::kInput ? "input " : "output ") << port.name
        << (port.kind == PortKind::kData ? " data " : " control ")
        << port.width << "\n";
  }
  for (const Register& reg : n.registers()) {
    check_name(reg.name);
    out << "register " << reg.name << " " << reg.width
        << (reg.has_load_enable ? " load" : " noload") << "\n";
  }
  for (const Mux& mux : n.muxes()) {
    check_name(mux.name);
    out << "mux " << mux.name << " " << mux.width << " " << mux.num_inputs
        << "\n";
  }
  for (std::size_t i = 0; i < n.fus().size(); ++i) {
    const FunctionalUnit& fu = n.fus()[i];
    check_name(fu.name);
    if (fu.kind == FuKind::kRandomLogic) {
      const unsigned in_width =
          n.pin_width(n.fu_in(FuId(static_cast<std::uint32_t>(i)), 0));
      out << "randomlogic " << fu.name << " " << in_width << " " << fu.width
          << " " << fu.gate_hint << " " << fu.seed << "\n";
    } else {
      out << "fu " << fu.name << " " << fu_kind_name(fu.kind) << " "
          << fu.width << " " << fu.num_inputs << "\n";
    }
  }
  for (const Constant& constant : n.constants()) {
    check_name(constant.name);
    out << "constant " << constant.name << " " << constant.value.width()
        << " " << constant.value.to_string() << "\n";
  }
  for (const Connection& conn : n.connections()) {
    out << "connect " << pin_token(n, conn.from) << " " << conn.from_lo
        << " -> " << pin_token(n, conn.to) << " " << conn.to_lo << " "
        << conn.width << "\n";
  }
  out << "end\n";
  return out.str();
}

Netlist parse_netlist(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  bool saw_end = false;
  Netlist netlist("");
  bool named = false;

  auto err = [&line_no](const std::string& message) -> void {
    util::raise("parse_netlist: line " + std::to_string(line_no) + ": " +
                message);
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream tokens(line);
    std::string keyword;
    if (!(tokens >> keyword)) continue;
    if (saw_end) err("content after 'end'");

    if (!saw_header) {
      std::string tag;
      if (keyword != "socet-rtl" || !(tokens >> tag) || tag != "v1") {
        err("expected 'socet-rtl v1' header");
      }
      saw_header = true;
      continue;
    }

    if (keyword == "netlist") {
      std::string name;
      if (!(tokens >> name)) err("missing netlist name");
      netlist = Netlist(name);
      named = true;
    } else if (keyword == "input" || keyword == "output") {
      std::string name;
      std::string kind;
      unsigned width = 0;
      if (!(tokens >> name >> kind >> width)) err("bad port line");
      const PortKind port_kind =
          kind == "data" ? PortKind::kData : PortKind::kControl;
      if (kind != "data" && kind != "control") err("port kind data|control");
      if (keyword == "input") {
        netlist.add_input(name, width, port_kind);
      } else {
        netlist.add_output(name, width, port_kind);
      }
    } else if (keyword == "register") {
      std::string name;
      unsigned width = 0;
      std::string load;
      if (!(tokens >> name >> width >> load)) err("bad register line");
      if (load != "load" && load != "noload") err("register load|noload");
      netlist.add_register(name, width, load == "load");
    } else if (keyword == "mux") {
      std::string name;
      unsigned width = 0;
      unsigned inputs = 0;
      if (!(tokens >> name >> width >> inputs)) err("bad mux line");
      netlist.add_mux(name, width, inputs);
    } else if (keyword == "fu") {
      std::string name;
      std::string kind;
      unsigned width = 0;
      unsigned inputs = 0;
      if (!(tokens >> name >> kind >> width >> inputs)) err("bad fu line");
      netlist.add_fu(name, fu_kind_from(kind, line_no), width, inputs);
    } else if (keyword == "randomlogic") {
      std::string name;
      unsigned in_width = 0;
      unsigned out_width = 0;
      unsigned hint = 0;
      std::uint64_t seed = 0;
      if (!(tokens >> name >> in_width >> out_width >> hint >> seed)) {
        err("bad randomlogic line");
      }
      netlist.add_random_logic(name, in_width, out_width, hint, seed);
    } else if (keyword == "constant") {
      std::string name;
      unsigned width = 0;
      std::string bits;
      if (!(tokens >> name >> width >> bits)) err("bad constant line");
      if (bits.size() != width) err("constant width/bits mismatch");
      netlist.add_constant(name, util::BitVector::from_string(bits));
    } else if (keyword == "connect") {
      std::string from_token;
      std::string arrow;
      std::string to_token;
      unsigned from_lo = 0;
      unsigned to_lo = 0;
      unsigned width = 0;
      if (!(tokens >> from_token >> from_lo >> arrow >> to_token >> to_lo >>
            width) ||
          arrow != "->") {
        err("bad connect line");
      }
      const PinParser parser{netlist};
      netlist.connect(parser.parse(from_token, line_no), from_lo,
                      parser.parse(to_token, line_no), to_lo, width);
    } else if (keyword == "end") {
      saw_end = true;
    } else {
      err("unknown keyword '" + keyword + "'");
    }
  }
  if (!saw_header) util::raise("parse_netlist: empty input");
  if (!saw_end) util::raise("parse_netlist: missing 'end'");
  if (!named) util::raise("parse_netlist: missing 'netlist' declaration");
  return netlist;
}

}  // namespace socet::rtl
