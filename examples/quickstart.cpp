// quickstart — a five-minute tour of the library's public API:
// posit values, the quire, Algorithm 1 quantization, and scaling (Eq. 2/3).
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "exec/float_backend.hpp"
#include "nn/resnet.hpp"
#include "posit/math.hpp"
#include "posit/posit.hpp"
#include "posit/quire.hpp"
#include "posit/tables.hpp"
#include "quant/posit_session.hpp"
#include "quant/posit_transform.hpp"
#include "quant/scale.hpp"

int main() {
  using namespace pdnn;

  // --- 1. posit values behave like numbers --------------------------------
  using posit::Posit16_1;
  const Posit16_1 a{3.25}, b{-0.125};
  std::printf("a = %g, b = %g\n", a.value(), b.value());
  std::printf("a+b = %g, a*b = %g, a/b = %g, sqrt(a) = %g\n", (a + b).value(), (a * b).value(),
              (a / b).value(), posit::sqrt(a).value());
  std::printf("posit(16,1): maxpos = %g, minpos = %g\n\n", Posit16_1::maxpos().value(),
              Posit16_1::minpos().value());

  // --- 2. tapered precision: dense near 1, sparse at the extremes ----------
  const posit::PositSpec p81{8, 1};
  std::printf("posit(8,1) neighbors of 1.0:   %g  1.0  %g\n",
              posit::to_double(posit::from_double(1.0, p81) - 1, p81),
              posit::to_double(posit::from_double(1.0, p81) + 1, p81));
  std::printf("posit(8,1) neighbors of 256:   %g  256  %g\n\n",
              posit::to_double(posit::from_double(256.0, p81) - 1, p81),
              posit::to_double(posit::from_double(256.0, p81) + 1, p81));

  // --- 3. the quire: exact dot products ------------------------------------
  posit::Quire q(p81);
  q.add_product(posit::from_double(100.0, p81), posit::from_double(1.0, p81));
  q.add_posit(p81.minpos_code());                              // tiny term
  q.sub_product(posit::from_double(100.0, p81), posit::from_double(1.0, p81));
  std::printf("quire of 100*1 + minpos - 100*1 = %g (exactly minpos = %g)\n\n", q.to_double(),
              posit::minpos_value(p81));

  // --- 4. Algorithm 1: the paper's quantization operator -------------------
  // transform_span applies P(x / Sf) * Sf in place over a float span; shift 0
  // with round-toward-zero is Algorithm 1 itself.
  const auto tz = posit::RoundMode::kTowardZero;
  const float x = 0.0137f;
  float px = x;
  quant::transform_span(&px, 1, p81, /*shift=*/0, tz, nullptr);
  std::printf("P_{8,1}(%g) = %g (round toward zero)\n", x, px);

  // --- 5. Eq. (2)/(3): layer-wise scaling ----------------------------------
  tensor::Rng rng(1);
  tensor::Tensor w = tensor::Tensor::randn({1000}, rng, 0.01f);
  const int shift = quant::scale_shift(w);  // center + sigma
  float raw = w[0], scaled = w[0];
  quant::transform_span(&raw, 1, p81, 0, tz, nullptr);
  quant::transform_span(&scaled, 1, p81, shift, tz, nullptr);
  std::printf("tensor with stddev 0.01: Eq.2 shift = %d (Sf = 2^%d)\n", shift, shift);
  std::printf("P(x) alone:      %g -> %g\n", static_cast<double>(w[0]), static_cast<double>(raw));
  std::printf("P(x/Sf)*Sf:      %g -> %g  (finer grid where the data lives)\n",
              static_cast<double>(w[0]), static_cast<double>(scaled));

  // --- 6. compiled inference: one ExecPlan, pluggable backends -------------
  // exec::GraphBuilder lowers the module graph once into a linearized plan,
  // the ArenaPlanner folds every intermediate tensor onto a few reusable
  // buffers, and each backend executes that same plan allocation-free:
  // PositSession in true posit arithmetic, FloatBackend on the blocked FP32
  // GEMM path.
  auto net = nn::cifar_resnet({/*blocks_per_stage=*/1, /*base_channels=*/4}, rng);
  net->forward(tensor::Tensor::randn({2, 3, 8, 8}, rng), /*training=*/true);  // settle BN stats
  quant::SessionConfig scfg;
  scfg.spec = {16, 1};                      // default format
  scfg.mode = quant::AccumMode::kQuire;     // exact dots, one rounding each
  scfg.by_name["fc"] = {posit::PositSpec{16, 2}, {}};  // per-layer override
  quant::PositSession session = quant::PositSession::compile(*net, scfg);
  const tensor::Tensor xin = tensor::Tensor::randn({2, 3, 8, 8}, rng);
  const tensor::Tensor& logits = session.run(xin);
  std::printf("\nPositSession over ResNet-8: %zu steps, %zu bound params, logits %s, l[0,0] = %g\n",
              session.steps(), session.bound_params(), logits.shape().to_string().c_str(),
              static_cast<double>(logits.at(0, 0)));
  std::printf("%s", session.plan().dump(session.arena_bytes()).c_str());

  // The float backend compiles the identical graph — compile once, run many,
  // zero steady-state allocations, bit-identical to nn::Module::forward.
  exec::FloatBackend fp32 = exec::FloatBackend::compile(*net);
  const tensor::Tensor& flogits = fp32.run(xin);
  std::printf("FloatBackend over the same plan: logits %s, l[0,0] = %g, arena %zu bytes\n",
              flogits.shape().to_string().c_str(), static_cast<double>(flogits.at(0, 0)),
              fp32.arena_bytes());
  return 0;
}
