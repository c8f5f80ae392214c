#include "support/expr_program.hh"

#include <set>

#include "util/logging.hh"

namespace predvfs {
namespace rtl {

ExprProgram::ExprProgram(const ExprPtr &tree_in)
    : tree(tree_in)
{
    // A literal or a single field read needs no code, as in a design,
    // where both lower to leaves.
    if (!tree->isConstant() && tree->op() != Op::Field)
        stackNeeded = CompiledDesign::lowerBytecode(tree, code, pool);
    std::set<FieldId> fields;
    tree->collectFields(fields);
    if (!fields.empty())
        maxField = *fields.rbegin();
}

std::int64_t
ExprProgram::eval(std::span<const std::int64_t> fields) const
{
    if (code.empty())
        return tree->eval(fields);
    util::panicIf(maxField >= 0 &&
                  static_cast<std::size_t>(maxField) >= fields.size(),
                  "ExprProgram: field ", maxField,
                  " out of range (item has ", fields.size(), " fields)");
    std::vector<std::int64_t> stack(stackNeeded);
    return CompiledDesign::runBytecode(code.data(), code.size(),
                                       pool.data(), fields.data(),
                                       stack.data());
}

} // namespace rtl
} // namespace predvfs
