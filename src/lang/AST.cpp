#include "lang/AST.h"

#include <algorithm>
#include <bit>

using namespace nascent;

namespace {

/// FNV-1a over the spelling; identifiers are short, so a byte loop is
/// cheaper than a wider hash's set-up.
uint64_t hashSpelling(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace

size_t NameTable::slotFor(std::string_view Spelling, uint64_t Hash) const {
  size_t Mask = Slots.size() - 1;
  size_t I = Hash & Mask;
  while (Slots[I] != 0 && Spellings[Slots[I] - 1] != Spelling)
    I = (I + 1) & Mask;
  return I;
}

NameID NameTable::find(std::string_view Spelling) const {
  if (Slots.empty())
    return InvalidName;
  uint32_t S = Slots[slotFor(Spelling, hashSpelling(Spelling))];
  return S == 0 ? InvalidName : S - 1;
}

NameID NameTable::intern(std::string_view Spelling) {
  if (2 * (Spellings.size() + 1) > Slots.size()) {
    if (Spellings.empty())
      Spellings.reserve(32);
    Slots.assign(std::bit_ceil(std::max<size_t>(64, 4 * Spellings.size())),
                 0);
    for (NameID ID = 0; ID != Spellings.size(); ++ID)
      Slots[slotFor(Spellings[ID], hashSpelling(Spellings[ID]))] = ID + 1;
  }
  size_t I = slotFor(Spelling, hashSpelling(Spelling));
  if (Slots[I] != 0)
    return Slots[I] - 1;
  NameID ID = static_cast<NameID>(Spellings.size());
  Spellings.push_back(Mem.copy(Spelling));
  Slots[I] = ID + 1;
  return ID;
}
