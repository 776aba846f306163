// Reproduces Figure 4 / §5.1: the three internal tuple representations.
// Paper claims per representation:
//   stream       — "fairly low memory requirements but ... expensive
//                   processing if some of the content ... needs to be
//                   skipped over"
//   single token — "higher memory requirements and ... expensive
//                   processing if accessed, but is cheap when content can
//                   be skipped"
//   array        — "higher memory requirements but provides cheap access
//                   to all fields" (best for flat relational data)
// The benchmark materializes N tuples of W single-token fields and then
// reads them under two access patterns: every field (relational style)
// and one field out of W (skip-heavy). Memory is reported as a counter.

#include <benchmark/benchmark.h>

#include "runtime/physical/batch.h"
#include "runtime/tuple.h"
#include "runtime/tuple_repr.h"

namespace {

using namespace aldsp;
using runtime::TupleBuffer;
using runtime::TupleRepr;
using xml::AtomicValue;
using xml::Item;
using xml::Sequence;

constexpr size_t kFields = 12;
constexpr int kRows = 2000;

std::unique_ptr<TupleBuffer> Fill(TupleRepr repr) {
  auto buffer = std::make_unique<TupleBuffer>(repr, kFields);
  for (int i = 0; i < kRows; ++i) {
    std::vector<Sequence> fields;
    for (size_t f = 0; f < kFields; ++f) {
      if (f % 2 == 0) {
        fields.push_back(Sequence{Item(AtomicValue::Integer(i * 100 + static_cast<int>(f)))});
      } else {
        fields.push_back(Sequence{
            Item(AtomicValue::String("value-" + std::to_string(i) + "-" +
                                     std::to_string(f)))});
      }
    }
    buffer->Append(fields);
  }
  return buffer;
}

void BM_Materialize(benchmark::State& state) {
  TupleRepr repr = static_cast<TupleRepr>(state.range(0));
  std::unique_ptr<TupleBuffer> buffer;
  for (auto _ : state) {
    buffer = Fill(repr);
    benchmark::DoNotOptimize(buffer->size());
  }
  state.SetLabel(runtime::TupleReprName(repr));
  state.counters["memory_bytes"] = static_cast<double>(buffer->MemoryBytes());
  state.counters["bytes_per_tuple"] =
      static_cast<double>(buffer->MemoryBytes()) / kRows;
}

void BM_AccessAllFields(benchmark::State& state) {
  TupleRepr repr = static_cast<TupleRepr>(state.range(0));
  auto buffer = Fill(repr);
  for (auto _ : state) {
    size_t total = 0;
    for (int r = 0; r < kRows; ++r) {
      for (size_t f = 0; f < kFields; ++f) {
        auto v = buffer->GetField(static_cast<size_t>(r), f);
        total += v->size();
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetLabel(runtime::TupleReprName(repr));
  state.counters["memory_bytes"] = static_cast<double>(buffer->MemoryBytes());
}

void BM_AccessOneFieldSkipRest(benchmark::State& state) {
  TupleRepr repr = static_cast<TupleRepr>(state.range(0));
  auto buffer = Fill(repr);
  // Reading the last field maximizes the skip cost of the framed
  // representations.
  for (auto _ : state) {
    size_t total = 0;
    for (int r = 0; r < kRows; ++r) {
      auto v = buffer->GetField(static_cast<size_t>(r), kFields - 1);
      total += v->size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetLabel(runtime::TupleReprName(repr));
}

void BM_AccessFirstField(benchmark::State& state) {
  TupleRepr repr = static_cast<TupleRepr>(state.range(0));
  auto buffer = Fill(repr);
  for (auto _ : state) {
    size_t total = 0;
    for (int r = 0; r < kRows; ++r) {
      auto v = buffer->GetField(static_cast<size_t>(r), 0);
      total += v->size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetLabel(runtime::TupleReprName(repr));
}

#define REPR_ARGS                                        \
  ->Arg(static_cast<int>(TupleRepr::kStream))            \
      ->Arg(static_cast<int>(TupleRepr::kSingleToken))   \
      ->Arg(static_cast<int>(TupleRepr::kArray))         \
      ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Materialize) REPR_ARGS;
BENCHMARK(BM_AccessAllFields) REPR_ARGS;
BENCHMARK(BM_AccessOneFieldSkipRest) REPR_ARGS;
BENCHMARK(BM_AccessFirstField) REPR_ARGS;

// ----- Batch construction: row tuples vs columnar TupleBatch --------------
//
// The row engine builds one immutable Tuple chain per row (W Bind calls,
// each a shared_ptr node allocation holding a boxed Sequence). The batch
// runtime fills W columns of unboxed atomics instead, touching one
// allocation stream per column. Same logical content, same W and N as the
// representation benchmarks above.

AtomicValue FieldValue(int row, size_t field) {
  if (field % 2 == 0) {
    return AtomicValue::Integer(row * 100 + static_cast<int>(field));
  }
  return AtomicValue::String("value-" + std::to_string(row) + "-" +
                             std::to_string(field));
}

void BM_BatchConstructRowTuples(benchmark::State& state) {
  std::vector<std::string> names;
  for (size_t f = 0; f < kFields; ++f) {
    names.push_back(std::string("f").append(std::to_string(f)));
  }
  for (auto _ : state) {
    std::vector<runtime::Tuple> rows;
    rows.reserve(kRows);
    for (int r = 0; r < kRows; ++r) {
      runtime::Tuple t;
      for (size_t f = 0; f < kFields; ++f) {
        t = t.Bind(names[f], Sequence{Item(FieldValue(r, f))});
      }
      rows.push_back(std::move(t));
    }
    benchmark::DoNotOptimize(rows.size());
  }
}

void BM_BatchConstructColumnar(benchmark::State& state) {
  using runtime::physical::BatchColumn;
  using runtime::physical::TupleBatch;
  for (auto _ : state) {
    TupleBatch batch;
    for (int r = 0; r < kRows; ++r) batch.AddRow(runtime::Tuple{});
    for (size_t f = 0; f < kFields; ++f) {
      BatchColumn* col =
          batch.AddColumn(std::string("f").append(std::to_string(f)));
      for (int r = 0; r < kRows; ++r) col->AppendAtomic(FieldValue(r, f));
    }
    benchmark::DoNotOptimize(batch.size());
  }
}

BENCHMARK(BM_BatchConstructRowTuples)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BatchConstructColumnar)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
