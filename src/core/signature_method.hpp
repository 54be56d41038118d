// Generic signature-method interface (the paper's Sig() function,
// Section III-A): a signature method maps an n x wl window of the sensor
// matrix to a flat feature vector of fixed length l << n * wl. The CS method
// and the baselines (Tuncer, Bodik, Lan, PCA) all implement this interface,
// which is what the experiment harness, the streaming layer and the
// scalability benchmark drive.
//
// The compute surface consumes windows as common::MatrixView — a zero-copy
// view over either a row-major Matrix block (offline) or the one/two
// contiguous column segments of a RingMatrix window (streaming) — so the
// streaming hot path never assembles a temporary window matrix. A
// common::Matrix converts to a view implicitly, so offline call sites pass
// matrices to compute() and fit() unchanged, and a derived class needs no
// `using` declaration to keep them compiling.
//
// Methods have a full lifecycle: a method is *constructed* (usually from a
// spec string via core::MethodRegistry) either already trained (stateless
// baselines) or as an untrained prototype (CS, PCA), *fitted* on historical
// data with fit(), asked to *compute* signatures window by window, and
// *encoded* as a CSMB record (codec::encode_binary) that MethodRegistry::
// decode turns back into an equivalent trained method. The default
// implementations below describe a stateless method, so ad-hoc
// SignatureMethod subclasses (e.g. benchmark one-offs) only have to
// override the three compute-side members.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/matrix_view.hpp"

namespace csm::core {

namespace codec {
class Sink;
class Source;
}

struct TrainContext;  // core/training.hpp: reusable workspace + cancel token.

/// Per-stream emit state of a trained method (see
/// SignatureMethod::make_stream_state): fed every raw sensor column the
/// stream pushes, it emits the feature vector of the newest wl of them.
class StreamState {
 public:
  StreamState() = default;
  virtual ~StreamState() = default;
  StreamState(const StreamState&) = delete;
  StreamState& operator=(const StreamState&) = delete;
  StreamState(StreamState&&) = delete;
  StreamState& operator=(StreamState&&) = delete;

  /// Takes one raw column of the method's n_sensors() values.
  virtual void push(std::span<const double> column) = 0;

  /// Feature vector of the newest wl pushed columns; `seeded` passes the
  /// column pushed before them as the derivative seed.
  virtual std::vector<double> emit(bool seeded) = 0;
};

/// Abstract signature extractor.
class SignatureMethod {
 public:
  virtual ~SignatureMethod() = default;

  /// Human-readable method name, e.g. "Tuncer" or "CS-20".
  virtual std::string name() const = 0;

  /// Length of the feature vector produced for an n-sensor window.
  virtual std::size_t signature_length(std::size_t n_sensors) const = 0;

  /// Computes the feature vector for one window view (rows = sensors,
  /// cols = wl samples). Throws std::logic_error if !trained().
  virtual std::vector<double> compute(const common::MatrixView& window)
      const = 0;

  // --- trained-state lifecycle ---------------------------------------------

  /// Whether compute() may be called. Stateless methods are born trained;
  /// trainable methods (CS, PCA) start as untrained prototypes.
  virtual bool trained() const { return true; }

  /// Sensor-row count a trained method is bound to; 0 means the method
  /// accepts windows of any sensor count (stateless baselines, prototypes).
  virtual std::size_t n_sensors() const { return 0; }

  /// Returns a trained copy fitted on historical data (rows = sensors,
  /// cols = samples): CS runs Algorithm 1 + bounds, PCA extracts its basis,
  /// and the stateless baselines return a copy of themselves. Streaming
  /// retrains pass the ring history through this view without materialising
  /// it first.
  virtual std::unique_ptr<SignatureMethod> fit(
      const common::MatrixView& train) const {
    (void)train;
    throw std::logic_error(name() + ": fit() is not supported");
  }

  /// fit() with caller-owned training state: methods whose training is
  /// expensive (CS) reuse ctx.workspace across retrains and poll ctx.cancel,
  /// throwing common::OperationCancelled when a superseded retrain should
  /// abort. The default ignores the context (stateless baselines train in
  /// O(1); cancellation between fits is handled by the caller).
  virtual std::unique_ptr<SignatureMethod> fit(const common::MatrixView& train,
                                               TrainContext& ctx) const {
    (void)ctx;
    return fit(train);
  }

  // --- model codec ---------------------------------------------------------

  /// Registry key the model codec files this method under ("cs", "pca", ...).
  /// Empty (the default) marks the method as not serialisable — ad-hoc
  /// subclasses such as benchmark one-offs need not opt in.
  virtual std::string codec_key() const { return {}; }

  /// Writes the trained state as named, typed fields. This is the single
  /// write path of the model codec: codec::encode_binary frames the fields
  /// as a CRC-checked CSMB record, and the matching registry reader
  /// consumes them in the same order from a codec::Source. Default: not
  /// supported.
  virtual void save(codec::Sink& sink) const;

  /// Streaming variant of compute(): may additionally use the raw (unsorted)
  /// sensor column that immediately precedes the window (null when the
  /// stream has no history yet). CS seeds its derivative channel with it,
  /// avoiding the zero-spike at window boundaries; the default ignores the
  /// seed. `seed_col`, when non-null, points at a span of rows() values.
  virtual std::vector<double> compute_streaming(
      const common::MatrixView& window,
      const std::span<const double>* seed_col) const {
    (void)seed_col;
    return compute(window);
  }

  /// The stream-side seam of compute_streaming: a fresh per-stream state
  /// for windows of `window_length` columns, whose emit(seeded) returns
  /// exactly the bytes of compute_streaming(<newest wl columns pushed>,
  /// seeded ? &<column pushed before them> : nullptr). A method overrides
  /// it when keeping state across pushes saves work per window (CS
  /// normalises each sample once instead of once per window). The default,
  /// null, tells MethodStream to call compute_streaming on the ring's view.
  /// A decorator that forwards compute_streaming to a wrapped method must
  /// forward this too, or the stream takes the fallback.
  virtual std::unique_ptr<StreamState> make_stream_state(
      std::size_t window_length) const {
    (void)window_length;
    return nullptr;
  }
};

}  // namespace csm::core
