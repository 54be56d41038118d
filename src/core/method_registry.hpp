// Spec-string grammar and registry for signature methods.
//
// A MethodSpec is the parsed form of a compact configuration string such as
// "cs:blocks=20,real-only", "tuncer" or "pca:components=8":
//
//   spec   := name [ ":" param { "," param } ]
//   param  := key "=" value | flag
//
// Names and keys are case-insensitive ([a-z0-9_-] after lowering); values
// are kept verbatim. A MethodRegistry maps spec names to factories that turn
// a MethodSpec into an (untrained or stateless) SignatureMethod, and to
// readers that revive trained methods from the fields of a CSMB record (see
// core/model_codec.hpp). A model file, a ModelPack entry and a kNodeAdd
// frame all carry that one record, so one Entry::read callback serves
// decode, load and ModelPack alike; anything else (e.g. the tagged text
// "csmethod" files of earlier releases) is rejected as a bad magic.
//
// Adding a future method is one registry registration: the harness line-ups,
// csmcli (--method / methods), the benches and the streaming layer all
// construct methods through specs and pick the new entry up for free.
#pragma once

#include <cstddef>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/model_codec.hpp"
#include "core/signature_method.hpp"

namespace csm::core {

/// Parsed method-spec string: a method name plus key=value / flag parameters.
struct MethodSpec {
  std::string name;
  /// Parameters in written order; flags carry an empty value.
  std::vector<std::pair<std::string, std::string>> params;

  /// Parses a spec string. Throws std::invalid_argument on an empty name,
  /// malformed characters, an empty key, or a duplicated key.
  static MethodSpec parse(std::string_view text);

  /// Canonical round-trippable form, e.g. "cs:blocks=20,real-only".
  std::string to_string() const;

  bool has(std::string_view key) const;
  /// Value of `key`, or `fallback` when absent.
  std::string get(std::string_view key, std::string fallback = {}) const;
  /// Non-negative integer value of `key`; throws std::invalid_argument if
  /// present but not a plain decimal number.
  std::size_t get_size_t(std::string_view key, std::size_t fallback) const;
  /// Boolean flag: absent -> false; bare flag or 1/true/on -> true;
  /// 0/false/off -> false; anything else throws std::invalid_argument.
  bool get_flag(std::string_view key) const;

  /// Throws std::invalid_argument naming the first parameter whose key is
  /// not in `allowed` — factories call this so typos fail loudly.
  void expect_only(std::initializer_list<std::string_view> allowed) const;
};

/// Maps spec names to method factories and trained-state readers.
class MethodRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<SignatureMethod>(const MethodSpec&)>;
  /// Reads the codec::Sink fields written by SignatureMethod::save() back
  /// from a record body. The registry calls Source::finish() afterwards.
  using Reader =
      std::function<std::unique_ptr<SignatureMethod>(codec::Source& in)>;

  struct Entry {
    std::string key;      ///< Spec name, e.g. "cs".
    std::string grammar;  ///< Spec grammar shown in listings.
    std::string summary;  ///< One-line description for listings.
    Factory factory;
    Reader read;
  };

  /// Registers an entry. Throws std::invalid_argument on an empty or
  /// duplicate key or a missing factory/read callback.
  void add(Entry entry);

  bool contains(std::string_view key) const;
  std::size_t size() const noexcept { return entries_.size(); }
  /// Registered keys in registration order.
  std::vector<std::string> keys() const;
  /// Entry lookup; throws std::invalid_argument listing known keys.
  const Entry& entry(std::string_view key) const;
  const std::vector<Entry>& entries() const noexcept { return entries_; }

  /// Constructs a method from a parsed spec / a spec string. The result is
  /// untrained for trainable methods — call fit() before compute().
  std::unique_ptr<SignatureMethod> create(const MethodSpec& spec) const;
  std::unique_ptr<SignatureMethod> create(std::string_view spec_text) const;

  /// Revives a trained method from one binary record written by
  /// codec::encode_binary (framing and CRC are validated here; the
  /// per-method reader validates the fields). Throws std::runtime_error.
  std::unique_ptr<SignatureMethod> decode(
      std::span<const std::uint8_t> record) const;

  /// decode() over a whole model file. Every std::runtime_error it throws
  /// names the file.
  std::unique_ptr<SignatureMethod> load(
      const std::filesystem::path& file) const;

 private:
  std::vector<Entry> entries_;
};

/// Writes the method's CSMB record (codec::encode_binary) to `file`; throws
/// std::runtime_error on I/O failure.
void save_method(const SignatureMethod& method,
                 const std::filesystem::path& file);

/// Registers the core CS method ("cs[:blocks=L,real-only]"; blocks=0 means
/// one block per sensor, i.e. CS-All). Baseline registrations live in
/// baselines/registry.hpp, which also assembles the full default registry.
void register_cs_method(MethodRegistry& registry);

}  // namespace csm::core
