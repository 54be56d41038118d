#include "core/method_registry.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/pipeline.hpp"

namespace csm::core {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::string lowered(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool valid_token(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::islower(c) || std::isdigit(c) || c == '_' || c == '-';
  });
}

}  // namespace

MethodSpec MethodSpec::parse(std::string_view text) {
  MethodSpec spec;
  const std::string_view whole = trim(text);
  const std::size_t colon = whole.find(':');
  spec.name = lowered(trim(whole.substr(0, colon)));
  if (!valid_token(spec.name)) {
    throw std::invalid_argument("MethodSpec: bad method name in \"" +
                                std::string(text) + "\"");
  }
  if (colon == std::string_view::npos) return spec;

  std::string_view rest = whole.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view param = trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (param.empty()) {
      throw std::invalid_argument("MethodSpec: empty parameter in \"" +
                                  std::string(text) + "\"");
    }
    const std::size_t eq = param.find('=');
    const std::string key = lowered(trim(param.substr(0, eq)));
    if (!valid_token(key)) {
      throw std::invalid_argument("MethodSpec: bad parameter key in \"" +
                                  std::string(text) + "\"");
    }
    if (spec.has(key)) {
      throw std::invalid_argument("MethodSpec: duplicate parameter \"" + key +
                                  "\" in \"" + std::string(text) + "\"");
    }
    const std::string value =
        eq == std::string_view::npos
            ? ""
            : std::string(trim(param.substr(eq + 1)));
    spec.params.emplace_back(key, value);
  }
  return spec;
}

std::string MethodSpec::to_string() const {
  std::string out = name;
  for (std::size_t i = 0; i < params.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += params[i].first;
    if (!params[i].second.empty()) {
      out += '=';
      out += params[i].second;
    }
  }
  return out;
}

bool MethodSpec::has(std::string_view key) const {
  return std::any_of(params.begin(), params.end(),
                     [&](const auto& kv) { return kv.first == key; });
}

std::string MethodSpec::get(std::string_view key, std::string fallback) const {
  for (const auto& [k, v] : params) {
    if (k == key) return v;
  }
  return fallback;
}

std::size_t MethodSpec::get_size_t(std::string_view key,
                                   std::size_t fallback) const {
  if (!has(key)) return fallback;
  const std::string value = get(key);
  std::size_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    throw std::invalid_argument("MethodSpec: parameter \"" + std::string(key) +
                                "\" is not a non-negative integer: \"" + value +
                                "\"");
  }
  return out;
}

bool MethodSpec::get_flag(std::string_view key) const {
  if (!has(key)) return false;
  const std::string value = lowered(get(key));
  if (value.empty() || value == "1" || value == "true" || value == "on") {
    return true;
  }
  if (value == "0" || value == "false" || value == "off") return false;
  throw std::invalid_argument("MethodSpec: parameter \"" + std::string(key) +
                              "\" is not a boolean: \"" + value + "\"");
}

void MethodSpec::expect_only(
    std::initializer_list<std::string_view> allowed) const {
  for (const auto& [key, value] : params) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw std::invalid_argument("MethodSpec: method \"" + name +
                                  "\" does not accept parameter \"" + key +
                                  "\"");
    }
  }
}

void MethodRegistry::add(Entry entry) {
  if (!valid_token(entry.key)) {
    throw std::invalid_argument("MethodRegistry: bad key \"" + entry.key +
                                "\"");
  }
  if (!entry.factory || !entry.read) {
    throw std::invalid_argument("MethodRegistry: entry \"" + entry.key +
                                "\" is missing a factory or reader");
  }
  if (contains(entry.key)) {
    throw std::invalid_argument("MethodRegistry: duplicate key \"" +
                                entry.key + "\"");
  }
  entries_.push_back(std::move(entry));
}

bool MethodRegistry::contains(std::string_view key) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.key == key; });
}

std::vector<std::string> MethodRegistry::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.key);
  return out;
}

const MethodRegistry::Entry& MethodRegistry::entry(std::string_view key) const {
  for (const Entry& e : entries_) {
    if (e.key == key) return e;
  }
  std::string known;
  for (const Entry& e : entries_) {
    if (!known.empty()) known += ", ";
    known += e.key;
  }
  throw std::invalid_argument("MethodRegistry: unknown method \"" +
                              std::string(key) + "\" (known: " + known + ")");
}

std::unique_ptr<SignatureMethod> MethodRegistry::create(
    const MethodSpec& spec) const {
  return entry(spec.name).factory(spec);
}

std::unique_ptr<SignatureMethod> MethodRegistry::create(
    std::string_view spec_text) const {
  return create(MethodSpec::parse(spec_text));
}

std::unique_ptr<SignatureMethod> MethodRegistry::decode(
    std::span<const std::uint8_t> record) const {
  const codec::RecordView view = codec::parse_record(record);
  if (!contains(view.key)) {
    throw std::runtime_error("MethodRegistry::decode: unknown method tag \"" +
                             view.key + "\"");
  }
  codec::Source source(view.body, view.body_offset);
  std::unique_ptr<SignatureMethod> method = entry(view.key).read(source);
  source.finish();
  return method;
}

std::unique_ptr<SignatureMethod> MethodRegistry::load(
    const std::filesystem::path& file) const {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    throw std::runtime_error("MethodRegistry::load: cannot open " +
                             file.string());
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string blob = buf.str();
  try {
    return decode({reinterpret_cast<const std::uint8_t*>(blob.data()),
                   blob.size()});
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("MethodRegistry::load: " + file.string() + ": " +
                             e.what());
  }
}

void save_method(const SignatureMethod& method,
                 const std::filesystem::path& file) {
  const std::vector<std::uint8_t> record = codec::encode_binary(method);
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("save_method: cannot open " + file.string());
  }
  out.write(reinterpret_cast<const char*>(record.data()),
            static_cast<std::streamsize>(record.size()));
  if (!out) throw std::runtime_error("save_method: write failed");
}

void register_cs_method(MethodRegistry& registry) {
  registry.add(MethodRegistry::Entry{
      "cs", "cs[:blocks=L][,real-only]",
      "Correlation-wise Smoothing (Sec. III-C); blocks=0 = one per sensor "
      "(CS-All), real-only drops the derivative channel",
      [](const MethodSpec& spec) -> std::unique_ptr<SignatureMethod> {
        spec.expect_only({"blocks", "real-only"});
        CsOptions options;
        options.blocks = spec.get_size_t("blocks", 0);
        options.real_only = spec.get_flag("real-only");
        return std::make_unique<CsSignatureMethod>(options);
      },
      [](codec::Source& in) -> std::unique_ptr<SignatureMethod> {
        return CsSignatureMethod::read(in);
      }});
}

}  // namespace csm::core
