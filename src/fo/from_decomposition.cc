#include "fo/from_decomposition.h"

#include <algorithm>

#include "common/check.h"

namespace cqcs {

namespace {

class Translator {
 public:
  Translator(const Structure& a, const TreeDecomposition& td)
      : a_(a), td_(td), slot_pool_(static_cast<size_t>(td.Width()) + 1) {
    AssignTuplesToBags();
  }

  FoFormula BuildAll() {
    std::vector<FoFormula> roots;
    for (uint32_t node = 0; node < td_.node_count(); ++node) {
      if (td_.parent(node) != TreeDecomposition::kNoParent) continue;
      // Root: all slots fresh.
      std::vector<int> slot_of_element(a_.universe_size(), -1);
      std::vector<uint8_t> slot_used(slot_pool_, 0);
      roots.push_back(BuildNode(node, slot_of_element, slot_used));
    }
    if (roots.size() == 1) return std::move(roots[0]);
    return FoFormula::And(std::move(roots));
  }

 private:
  void AssignTuplesToBags() {
    tuples_of_node_.resize(td_.node_count());
    const Vocabulary& vocab = *a_.vocabulary();
    for (RelId id = 0; id < vocab.size(); ++id) {
      const Relation& r = a_.relation(id);
      for (uint32_t t = 0; t < r.tuple_count(); ++t) {
        std::span<const Element> tup = r.tuple(t);
        for (uint32_t node = 0; node < td_.node_count(); ++node) {
          const auto& bag = td_.bag(node);
          bool covered = true;
          for (Element e : tup) {
            if (!std::binary_search(bag.begin(), bag.end(), e)) {
              covered = false;
              break;
            }
          }
          if (covered) {
            tuples_of_node_[node].emplace_back(id, t);
            break;
          }
        }
      }
    }
  }

  /// Builds the subformula for `node`. `slot_of_element` / `slot_used`
  /// describe the slots of elements shared with the parent (the
  /// "boundary"). New bag elements are bound to free slots under ∃.
  FoFormula BuildNode(uint32_t node, std::vector<int> slot_of_element,
                      std::vector<uint8_t> slot_used) {
    const auto& bag = td_.bag(node);
    // Release slots of inherited elements that left the bag: a parent slot
    // stays reserved only while its element is still present.
    // (slot_of_element entries for departed elements are cleared by the
    // caller — `inherited` only lists surviving ones.)
    std::vector<uint32_t> fresh_slots;
    std::vector<Element> fresh_elements;
    for (Element e : bag) {
      if (slot_of_element[e] != -1) continue;  // shared with parent
      uint32_t slot = 0;
      while (slot < slot_pool_ && slot_used[slot]) ++slot;
      CQCS_CHECK_MSG(slot < slot_pool_, "slot pool exhausted — bag wider "
                                        "than width+1?");
      slot_of_element[e] = static_cast<int>(slot);
      slot_used[slot] = 1;
      fresh_slots.push_back(slot);
      fresh_elements.push_back(e);
    }

    std::vector<FoFormula> conjuncts;
    for (auto [rel, t] : tuples_of_node_[node]) {
      std::span<const Element> tup = a_.relation(rel).tuple(t);
      std::vector<uint32_t> vars;
      vars.reserve(tup.size());
      for (Element e : tup) {
        CQCS_CHECK(slot_of_element[e] != -1);
        vars.push_back(static_cast<uint32_t>(slot_of_element[e]));
      }
      conjuncts.push_back(FoFormula::Atom(rel, std::move(vars)));
    }
    for (uint32_t child : td_.children(node)) {
      // The child inherits slots only for elements shared with it.
      const auto& cbag = td_.bag(child);
      std::vector<int> child_slots(a_.universe_size(), -1);
      std::vector<uint8_t> child_used(slot_pool_, 0);
      for (Element e : cbag) {
        if (std::binary_search(bag.begin(), bag.end(), e)) {
          child_slots[e] = slot_of_element[e];
          child_used[static_cast<size_t>(slot_of_element[e])] = 1;
        }
      }
      conjuncts.push_back(BuildNode(child, std::move(child_slots),
                                    std::move(child_used)));
    }

    FoFormula body = conjuncts.size() == 1 ? std::move(conjuncts[0])
                                           : FoFormula::And(std::move(conjuncts));
    // Quantify the fresh slots (innermost-first order is immaterial).
    for (size_t i = fresh_slots.size(); i-- > 0;) {
      body = FoFormula::Exists(fresh_slots[i], std::move(body));
    }
    return body;
  }

  const Structure& a_;
  const TreeDecomposition& td_;
  size_t slot_pool_;
  std::vector<std::vector<std::pair<RelId, uint32_t>>> tuples_of_node_;
};

}  // namespace

Result<FoFormula> BuildSentenceFromDecomposition(
    const Structure& a, const TreeDecomposition& decomposition) {
  CQCS_RETURN_IF_ERROR(decomposition.ValidateFor(a));
  if (a.universe_size() == 0) {
    return FoFormula::And({});  // the empty conjunction: "true"
  }
  Translator translator(a, decomposition);
  FoFormula sentence = translator.BuildAll();
  CQCS_CHECK_MSG(sentence.FreeVars().empty(), "translation left free slots");
  return sentence;
}

Result<FoFormula> BuildSentence(const Structure& a) {
  return BuildSentenceFromDecomposition(a, *HeuristicDecomposition(a));
}

}  // namespace cqcs
