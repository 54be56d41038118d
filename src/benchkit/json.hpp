// Minimal JSON value: enough for the benchkit result schema and benchdiff.
//
// Objects preserve insertion order so emitted files are stable and diffable.
// Numbers are doubles; 64-bit seeds are therefore stored as decimal STRINGS
// in the bench schema (a double cannot represent every uint64 exactly).
// parse() accepts exactly what dump() emits plus ordinary JSON whitespace;
// it rejects trailing garbage and reports the byte offset of errors.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace csm::benchkit {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Member = std::pair<std::string, Json>;

  Json() = default;
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  template <typename T,
            std::enable_if_t<std::is_arithmetic_v<T> &&
                                 !std::is_same_v<T, bool>,
                             int> = 0>
  Json(T value)
      : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}
  Json(std::string_view value) : Json(std::string(value)) {}
  Json(const char* value) : Json(std::string(value)) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_object() const noexcept { return type_ == Type::kObject; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }

  /// Value accessors; throw std::runtime_error on a type mismatch.
  double number() const;
  const std::string& str() const;
  bool boolean() const;

  /// Array size / object member count; 0 for scalars.
  std::size_t size() const noexcept;

  // --- array ---------------------------------------------------------------
  /// Appends to an array (converts a null value into an empty array first).
  Json& push(Json value);
  /// Array element access; throws std::runtime_error when out of range.
  const Json& operator[](std::size_t index) const;
  const std::vector<Json>& elements() const { return array_; }

  // --- object --------------------------------------------------------------
  /// Appends/overwrites a member (converts null into an empty object first).
  Json& set(std::string key, Json value);
  /// Member lookup; nullptr when absent or not an object.
  const Json* find(std::string_view key) const;
  /// Member lookup; throws std::runtime_error naming the missing key.
  const Json& at(std::string_view key) const;
  const std::vector<Member>& members() const { return object_; }

  /// Serialises with `indent` spaces per level (0 = compact single line).
  std::string dump(int indent = 2) const;

  /// Parses a complete JSON document; throws std::runtime_error with the
  /// byte offset on malformed input or trailing garbage.
  static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<Member> object_;
};

}  // namespace csm::benchkit
