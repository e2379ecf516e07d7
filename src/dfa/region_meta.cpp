#include "dfa/region_meta.hpp"

#include "support/diagnostics.hpp"

namespace parcm {

namespace {

// Region containing region r's owning statement; invalid for the root.
// Component regions are always created after their ancestors, so parent
// indices are strictly smaller than child indices.
RegionId parent_region(const Graph& g, RegionId r) {
  ParStmtId owner = g.region(r).owner;
  if (!owner.valid()) return RegionId();
  return g.par_stmt(owner).parent_region;
}

}  // namespace

std::vector<BitVector> region_destroy_masks(
    const Graph& g, const std::vector<BitVector>& node_destroy,
    std::size_t num_terms) {
  std::vector<BitVector> masks(g.num_regions(), BitVector(num_terms));
  for (NodeId n : g.all_nodes()) {
    masks[g.node(n).region.index()] |= node_destroy[n.index()];
  }
  for (std::size_t ri = g.num_regions(); ri-- > 1;) {
    RegionId r(static_cast<RegionId::underlying>(ri));
    RegionId parent = parent_region(g, r);
    PARCM_CHECK(parent.valid() && parent.index() < ri,
                "region created before its parent");
    masks[parent.index()] |= masks[ri];
  }
  return masks;
}

std::vector<char> region_destroy_flags(const Graph& g,
                                       const std::vector<bool>& node_destroy) {
  std::vector<char> flags(g.num_regions(), 0);
  for (NodeId n : g.all_nodes()) {
    if (node_destroy[n.index()]) flags[g.node(n).region.index()] = 1;
  }
  for (std::size_t ri = g.num_regions(); ri-- > 1;) {
    RegionId r(static_cast<RegionId::underlying>(ri));
    RegionId parent = parent_region(g, r);
    PARCM_CHECK(parent.valid() && parent.index() < ri,
                "region created before its parent");
    flags[parent.index()] = flags[parent.index()] | flags[ri];
  }
  return flags;
}

std::vector<BitVector> region_nondest_masks(
    const Graph& g, const std::vector<BitVector>& region_destroy,
    std::size_t num_terms) {
  std::vector<BitVector> nondest(g.num_regions(), BitVector(num_terms, true));
  // Forward scan: a region's parent precedes it, so the parent's mask is
  // final when the component inherits it and drops its siblings' destroys.
  for (std::size_t ri = 1; ri < g.num_regions(); ++ri) {
    RegionId r(static_cast<RegionId::underlying>(ri));
    ParStmtId owner = g.region(r).owner;
    nondest[ri] = nondest[parent_region(g, r).index()];
    for (RegionId sibling : g.par_stmt(owner).components) {
      if (sibling != r) nondest[ri].and_not(region_destroy[sibling.index()]);
    }
  }
  return nondest;
}

std::vector<char> region_nondest_flags(
    const Graph& g, const std::vector<char>& region_destroy) {
  std::vector<char> nondest(g.num_regions(), 1);
  for (std::size_t ri = 1; ri < g.num_regions(); ++ri) {
    RegionId r(static_cast<RegionId::underlying>(ri));
    ParStmtId owner = g.region(r).owner;
    char nd = nondest[parent_region(g, r).index()];
    for (RegionId sibling : g.par_stmt(owner).components) {
      if (sibling != r && region_destroy[sibling.index()]) nd = 0;
    }
    nondest[ri] = nd;
  }
  return nondest;
}

std::vector<BitVector::Word> region_subtree_rows(
    const Graph& g, std::span<const BitVector::Word> direct,
    std::size_t words) {
  using Word = BitVector::Word;
  std::size_t num_regions = g.num_regions();
  PARCM_CHECK(direct.size() == num_regions * words, "region row shape");
  std::vector<Word> folded(direct.begin(), direct.end());
  for (std::size_t ri = num_regions; ri-- > 1;) {
    RegionId parent =
        parent_region(g, RegionId(static_cast<RegionId::underlying>(ri)));
    PARCM_CHECK(parent.valid() && parent.index() < ri,
                "region created before its parent");
    Word* to = folded.data() + parent.index() * words;
    const Word* from = folded.data() + ri * words;
    for (std::size_t w = 0; w < words; ++w) to[w] |= from[w];
  }
  return folded;
}

std::vector<BitVector::Word> region_sibling_rows(
    const Graph& g, std::span<const BitVector::Word> direct,
    std::size_t words) {
  using Word = BitVector::Word;
  std::size_t num_regions = g.num_regions();
  std::vector<Word> folded = region_subtree_rows(g, direct, words);
  std::vector<Word> siblings(num_regions * words, 0);
  for (std::size_t ri = 1; ri < num_regions; ++ri) {
    RegionId r(static_cast<RegionId::underlying>(ri));
    Word* row = siblings.data() + ri * words;
    const Word* inherited =
        siblings.data() + parent_region(g, r).index() * words;
    for (std::size_t w = 0; w < words; ++w) row[w] = inherited[w];
    for (RegionId sibling : g.par_stmt(g.region(r).owner).components) {
      if (sibling == r) continue;
      const Word* from = folded.data() + sibling.index() * words;
      for (std::size_t w = 0; w < words; ++w) row[w] |= from[w];
    }
  }
  return siblings;
}

std::vector<BitVector::Word> region_write_rows(const Graph& g,
                                               std::size_t words) {
  std::vector<BitVector::Word> write(g.num_regions() * words, 0);
  for (NodeId n : g.all_nodes()) {
    const Node& node = g.node(n);
    if (node.kind == NodeKind::kAssign) {
      BitVector::set_bit(write.data() + node.region.index() * words,
                         node.lhs.index());
    }
  }
  return write;
}

BitVector contested_vars(const Graph& g) {
  using Word = BitVector::Word;
  BitVector contested(g.num_vars());
  const std::size_t words = contested.word_count();
  std::vector<Word> write = region_write_rows(g, words);
  // Every write is an access; add the reads.
  std::vector<Word> access = write;
  for (NodeId n : g.all_nodes()) {
    const Node& node = g.node(n);
    Word* access_row = access.data() + node.region.index() * words;
    auto touch = [access_row](VarId v) {
      BitVector::set_bit(access_row, v.index());
    };
    if (node.kind == NodeKind::kAssign) {
      node.rhs.for_each_var(touch);
    } else if (node.kind == NodeKind::kTest) {
      node.cond->for_each_var(touch);
    }
  }
  std::vector<Word> sibling_access = region_sibling_rows(g, access, words);
  avector<Word>& out = contested.words();
  for (std::size_t r = 0; r < g.num_regions(); ++r) {
    for (std::size_t w = 0; w < words; ++w) {
      out[w] |= write[r * words + w] & sibling_access[r * words + w];
    }
  }
  return contested;
}

}  // namespace parcm
