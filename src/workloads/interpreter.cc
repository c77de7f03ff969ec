#include "workloads/interpreter.h"

#include <cmath>

#include "common/hash.h"
#include "common/logging.h"

namespace overgen::wl {

void
Memory::init(const KernelSpec &spec, uint64_t seed)
{
    arrays.clear();
    for (const ArraySpec &a : spec.arrays) {
        std::vector<double> data(static_cast<size_t>(a.elements));
        uint64_t h = hash::fnv1a(a.name) ^ (seed * 0x9e3779b97f4a7c15ull);
        if (a.isIndex) {
            int64_t target = spec.arrayByName(a.indexTarget).elements;
            for (size_t i = 0; i < data.size(); ++i) {
                uint64_t v = (h + i * 2654435761ull);
                data[i] = static_cast<double>(
                    static_cast<int64_t>(v % static_cast<uint64_t>(target)));
            }
        } else if (dataTypeIsFloat(a.type)) {
            for (size_t i = 0; i < data.size(); ++i) {
                uint64_t v = (h + i * 2654435761ull) % 251;
                data[i] = static_cast<double>(v) / 16.0 + 0.5;
            }
        } else {
            // Small magnitudes keep integer products exact in double.
            for (size_t i = 0; i < data.size(); ++i) {
                uint64_t v = (h + i * 2654435761ull) % 17;
                data[i] = static_cast<double>(v);
            }
        }
        arrays.emplace(a.name, std::move(data));
    }
}

std::vector<double> &
Memory::array(const std::string &name)
{
    auto it = arrays.find(name);
    OG_ASSERT(it != arrays.end(), "unknown array '", name, "'");
    return it->second;
}

const std::vector<double> &
Memory::array(const std::string &name) const
{
    auto it = arrays.find(name);
    OG_ASSERT(it != arrays.end(), "unknown array '", name, "'");
    return it->second;
}

bool
Memory::has(const std::string &name) const
{
    return arrays.count(name) > 0;
}

double
evalScalarOp(Opcode op, DataType type, double a, double b)
{
    bool flt = dataTypeIsFloat(type);
    auto as_int = [](double v) { return static_cast<int64_t>(v); };
    double result = 0.0;
    switch (op) {
      case Opcode::Add:
      case Opcode::Acc:
        result = a + b;
        break;
      case Opcode::Sub:
        result = a - b;
        break;
      case Opcode::Mul:
        result = a * b;
        break;
      case Opcode::Div:
        if (b == 0.0)
            return 0.0;  // hardware divider saturates on div-by-zero
        result = flt ? a / b
                     : static_cast<double>(as_int(a) / as_int(b));
        break;
      case Opcode::Sqrt:
        result = std::sqrt(std::max(a, 0.0));
        break;
      case Opcode::Min:
        result = std::min(a, b);
        break;
      case Opcode::Max:
        result = std::max(a, b);
        break;
      case Opcode::Abs:
        result = std::abs(a);
        break;
      case Opcode::Shl:
        return static_cast<double>(as_int(a) << (as_int(b) & 63));
      case Opcode::Shr:
        return static_cast<double>(as_int(a) >> (as_int(b) & 63));
      case Opcode::And:
        return static_cast<double>(as_int(a) & as_int(b));
      case Opcode::Or:
        return static_cast<double>(as_int(a) | as_int(b));
      case Opcode::Xor:
        return static_cast<double>(as_int(a) ^ as_int(b));
      case Opcode::Select:
        return a != 0.0 ? b : 0.0;  // 2-operand form: pred ? value : 0
      case Opcode::CmpLt:
        return a < b ? 1.0 : 0.0;
      case Opcode::CmpEq:
        return a == b ? 1.0 : 0.0;
    }
    if (!flt)
        result = std::trunc(result);
    return result;
}

int64_t
loopTrip(const KernelSpec &spec, size_t depth,
         const std::vector<int64_t> &ivs)
{
    const LoopSpec &loop = spec.loops[depth];
    int64_t trip = loop.tripBase;
    for (size_t d = 0; d < loop.tripCoeff.size() && d < depth; ++d)
        trip += loop.tripCoeff[d] * ivs[d];
    return std::max<int64_t>(trip, 0);
}

int64_t
resolveIndex(const KernelSpec &spec, const AccessSpec &access,
             const std::vector<int64_t> &ivs, const Memory &mem)
{
    int64_t affine = access.offset;
    for (size_t d = 0; d < access.coeffs.size() && d < ivs.size(); ++d)
        affine += access.coeffs[d] * ivs[d];

    const ArraySpec &target = spec.arrayByName(access.array);
    int64_t index = affine;
    if (access.indirect()) {
        const ArraySpec &index_arr = spec.arrayByName(access.indexArray);
        int64_t pos = affine % index_arr.elements;
        if (pos < 0)
            pos += index_arr.elements;
        index = static_cast<int64_t>(
            mem.array(access.indexArray)[static_cast<size_t>(pos)]);
    }
    // Paper assumption: no access overflows; clamp defensively anyway.
    int64_t wrapped = index % target.elements;
    if (wrapped < 0)
        wrapped += target.elements;
    return wrapped;
}

void
evalIteration(const KernelSpec &spec, const std::vector<int64_t> &ivs,
              Memory &mem)
{
    std::vector<double> op_values(spec.ops.size(), 0.0);
    auto operand_value = [&](const Operand &operand) -> double {
        switch (operand.kind) {
          case Operand::Kind::Access: {
            const AccessSpec &acc = spec.accesses[operand.index];
            int64_t idx = resolveIndex(spec, acc, ivs, mem);
            return mem.array(acc.array)[static_cast<size_t>(idx)];
          }
          case Operand::Kind::Op:
            return op_values[operand.index];
          case Operand::Kind::Imm:
            return operand.imm;
          case Operand::Kind::Index:
            OG_ASSERT(operand.index >= 0 &&
                          operand.index <
                              static_cast<int>(ivs.size()),
                      "bad loop index operand");
            return static_cast<double>(ivs[operand.index]);
        }
        OG_PANIC("bad operand kind");
    };

    for (size_t i = 0; i < spec.ops.size(); ++i) {
        const OpSpec &op = spec.ops[i];
        double a = operand_value(op.lhs);
        double b = operand_value(op.rhs);
        op_values[i] = evalScalarOp(op.op, op.type, a, b);
        if (op.writeAccess >= 0) {
            const AccessSpec &acc = spec.accesses[op.writeAccess];
            OG_ASSERT(acc.isWrite, "writeAccess on a read access");
            int64_t idx = resolveIndex(spec, acc, ivs, mem);
            mem.array(acc.array)[static_cast<size_t>(idx)] = op_values[i];
        }
    }
}

namespace {

void
runLoop(const KernelSpec &spec, size_t depth, std::vector<int64_t> &ivs,
        Memory &mem)
{
    if (depth == spec.loops.size()) {
        evalIteration(spec, ivs, mem);
        return;
    }
    int64_t trip = loopTrip(spec, depth, ivs);
    for (int64_t i = 0; i < trip; ++i) {
        ivs[depth] = i;
        runLoop(spec, depth + 1, ivs, mem);
    }
    ivs[depth] = 0;
}

} // namespace

void
interpret(const KernelSpec &spec, Memory &mem)
{
    std::vector<int64_t> ivs(spec.loops.size(), 0);
    runLoop(spec, 0, ivs, mem);
}

} // namespace overgen::wl
