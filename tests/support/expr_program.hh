/**
 * @file
 * A single expression run through the design compiler's bytecode path
 * on its own, for differential tests against the tree walker
 * (Expr::eval). Test support only: designs execute through
 * CompiledDesign, which lowers most roots to leaf shapes instead.
 */

#ifndef PREDVFS_TESTS_SUPPORT_EXPR_PROGRAM_HH
#define PREDVFS_TESTS_SUPPORT_EXPR_PROGRAM_HH

#include <cstdint>
#include <span>
#include <vector>

#include "rtl/compile.hh"

namespace predvfs {
namespace rtl {

/** One compiled expression owning its code; allocates per eval(). */
class ExprProgram
{
  public:
    explicit ExprProgram(const ExprPtr &tree);

    /** Evaluate against a work item's field values (like Expr::eval). */
    std::int64_t eval(std::span<const std::int64_t> fields) const;

    /** @return instruction count (0 for a literal or field read). */
    std::size_t codeLength() const { return code.size(); }

  private:
    ExprPtr tree;
    std::vector<BInstr> code;
    std::vector<std::int64_t> pool;
    std::uint32_t stackNeeded = 0;
    FieldId maxField = -1;  //!< Highest field the program reads.
};

} // namespace rtl
} // namespace predvfs

#endif // PREDVFS_TESTS_SUPPORT_EXPR_PROGRAM_HH
