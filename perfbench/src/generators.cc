#include "generators.h"

#include <sstream>
#include <utility>

#include "common/date.h"
#include "tpch/queries.h"
#include "tpch/random.h"
#include "tpch/tpch_gen.h"

namespace perfbench {

using nestra::Catalog;
using nestra::InnerLink;
using nestra::OuterLink;
using nestra::Query3Variant;
using nestra::Result;
using nestra::Rng;
using nestra::Table;
using nestra::Value;

namespace {

// Selectivity constants of examples/tpch_subqueries.
constexpr int64_t kSizeLo = 10;
constexpr int64_t kSizeHi = 40;
constexpr int64_t kAvailqtyMax = 5000;
constexpr int64_t kQuantity = 25;

struct PointShape {
  const char* name;
  OuterLink outer;
  InnerLink inner;
  bool query3;
  Query3Variant variant;
};

// Template 0 is Query 1; 1..5 follow the order of the paper's figures.
constexpr PointShape kPointShapes[kNumPointTemplates] = {
    {"Q1", OuterLink::kAll, InnerLink::kExists, false,
     Query3Variant::kVariantA},
    {"Q2a", OuterLink::kAny, InnerLink::kNotExists, false,
     Query3Variant::kVariantA},
    {"Q2b", OuterLink::kAll, InnerLink::kNotExists, false,
     Query3Variant::kVariantA},
    {"Q3a", OuterLink::kAll, InnerLink::kExists, true,
     Query3Variant::kVariantA},
    {"Q3b", OuterLink::kAll, InnerLink::kNotExists, true,
     Query3Variant::kVariantB},
    {"Q3c", OuterLink::kAny, InnerLink::kExists, true,
     Query3Variant::kVariantC},
};

Result<std::pair<int64_t, int64_t>> OrderDateRange(const Catalog& catalog) {
  NESTRA_ASSIGN_OR_RETURN(const Table* orders, catalog.GetTable("orders"));
  NESTRA_ASSIGN_OR_RETURN(Value lo,
                          nestra::ColumnQuantile(*orders, "o_orderdate", 0.0));
  NESTRA_ASSIGN_OR_RETURN(Value hi,
                          nestra::ColumnQuantile(*orders, "o_orderdate", 1.0));
  return std::make_pair(lo.int64(), hi.int64());
}

std::string Quoted(const std::string& s) { return "'" + s + "'"; }

}  // namespace

Result<std::vector<Statement>> PaperQueries(const Catalog& catalog) {
  NESTRA_ASSIGN_OR_RETURN(const Table* orders, catalog.GetTable("orders"));
  NESTRA_ASSIGN_OR_RETURN(Value lo,
                          nestra::ColumnQuantile(*orders, "o_orderdate", 0.3));
  NESTRA_ASSIGN_OR_RETURN(Value hi,
                          nestra::ColumnQuantile(*orders, "o_orderdate", 0.7));
  std::vector<Statement> out;
  out.push_back({"Q1", nestra::MakeQuery1(nestra::FormatDate(lo.int64()),
                                          nestra::FormatDate(hi.int64()))});
  for (int t = 1; t < kNumPointTemplates; ++t) {
    const PointShape& s = kPointShapes[t];
    out.push_back(
        {s.name, s.query3 ? nestra::MakeQuery3(kSizeLo, kSizeHi, kAvailqtyMax,
                                               kQuantity, s.outer, s.inner,
                                               s.variant)
                          : nestra::MakeQuery2(kSizeLo, kSizeHi, kAvailqtyMax,
                                               kQuantity, s.outer, s.inner)});
  }
  return out;
}

const char* PointTemplateName(int tmpl) { return kPointShapes[tmpl].name; }

std::string PointSql(int tmpl, const std::vector<std::string>& args) {
  const PointShape& s = kPointShapes[tmpl];
  std::ostringstream q;
  if (tmpl == 0) {
    q << "select o_orderkey, o_orderpriority from orders "
      << "where o_orderdate >= " << args[0] << " and o_orderdate < "
      << args[1] << " and o_totalprice > all ("
      << "select l_extendedprice from lineitem "
      << "where l_orderkey = o_orderkey and l_commitdate < l_receiptdate "
      << "and l_shipdate < l_commitdate)";
    return q.str();
  }
  const bool part_ne = s.query3 && s.variant == Query3Variant::kVariantB;
  const bool supp_ne = s.query3 && s.variant == Query3Variant::kVariantC;
  q << "select p_partkey, p_name from part "
    << "where p_size >= " << args[0] << " and p_size <= " << args[1]
    << " and p_retailprice < "
    << (s.outer == OuterLink::kAny ? "any" : "all") << " ("
    << "select ps_supplycost from partsupp "
    << "where ps_partkey = p_partkey and ps_availqty < " << args[2] << " and "
    << (s.inner == InnerLink::kExists ? "exists" : "not exists") << " ("
    << "select * from lineitem where ";
  if (s.query3) {
    q << "p_partkey " << (part_ne ? "<>" : "=") << " l_partkey "
      << "and ps_suppkey " << (supp_ne ? "<>" : "=") << " l_suppkey ";
  } else {
    q << "ps_partkey = l_partkey and ps_suppkey = l_suppkey ";
  }
  q << "and l_quantity = " << args[3] << "))";
  return q.str();
}

std::string PointPreparedSql(int tmpl) {
  if (tmpl == 0) return PointSql(tmpl, {"$1", "$2"});
  return PointSql(tmpl, {"$1", "$2", "$3", "$4"});
}

Result<std::vector<PointInstance>> PointInstances(const Catalog& catalog,
                                                  uint64_t seed, int count) {
  NESTRA_ASSIGN_OR_RETURN(auto range, OrderDateRange(catalog));
  constexpr int64_t kWindowDays = 30;
  Rng rng(seed ^ 0x706f696e74ULL);
  std::vector<PointInstance> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    PointInstance inst;
    inst.tmpl = i % kNumPointTemplates;
    if (inst.tmpl == 0) {
      const int64_t lo =
          rng.UniformInt(range.first, range.second - kWindowDays);
      for (int64_t d : {lo, lo + kWindowDays}) {
        const std::string text = nestra::FormatDate(d);
        inst.args.push_back(Value::String(text));
        inst.literals.push_back(Quoted(text));
      }
    } else {
      // Fixed window widths keep every instance equally selective, so runs
      // on different seeds do comparable work.
      const int64_t size_lo = rng.UniformInt(1, 49);
      const int64_t size_hi = size_lo + 1;
      const int64_t availqty = rng.UniformInt(4000, 6000);
      const int64_t quantity = rng.UniformInt(1, 50);
      for (int64_t v : {size_lo, size_hi, availqty, quantity}) {
        inst.args.push_back(Value::Int64(v));
        inst.literals.push_back(std::to_string(v));
      }
    }
    out.push_back(std::move(inst));
  }
  return out;
}

// ---------------------------------------------------------------------------
// NULL-heavy nested corpus.

namespace {

// One subquery block: `select <linked> from <table> <alias> where <conds>`,
// linked to its parent through `outer` (the parent's operand).
struct Block {
  std::string table;
  std::string alias;
  std::string linked;  // qualified linked attribute
  std::string outer;   // parent's comparison operand
  std::vector<std::string> conds;
};

// The corpus structure (shapes, conjuncts, operators, link kinds) is the
// same for every run; the run's seed draws the constants. Constants move
// selectivities only a little, so runs on different seeds stay comparable.
constexpr uint64_t kStructureSeed = 20050614;

class CorpusGenerator {
 public:
  explicit CorpusGenerator(uint64_t seed)
      : rng_(kStructureSeed), constants_(seed ^ 0x6e756c6c73ULL) {}

  // Every random draw is its own statement, so the draw order (and with it
  // the corpus of a seed) does not depend on argument evaluation order.
  std::string Build(int shape, int root_kind) {
    if (shape == 0 && rng_.Bernoulli(0.5)) {
      std::string q = OrdersRoot();
      const Block lineitem = LineitemUnderOrders();
      return q + Link(root_kind, lineitem);
    }
    std::string q = PartRoot();
    const Block partsupp = PartSupp(/*narrow=*/shape >= 3);
    std::string below;  // the link under partsupp, if any
    if (shape == 1 || shape == 2 || shape == 4) {
      const Block lineitem = Lineitem(/*narrow=*/shape == 4);
      std::string under_lineitem;
      if (shape == 2) {
        const Block orders = OrdersUnderLineitem();
        const int kind = Kind();
        under_lineitem = Link(kind, orders);
      }
      const int kind = Kind();
      below = Link(kind, lineitem, under_lineitem);
    }
    q += Link(root_kind, partsupp, below);
    if (shape >= 3) {
      const Block sibling = LineitemUnderPart();
      const int kind = Kind();
      q += Link(kind, sibling);
    }
    return q;
  }

 private:
  int Kind() { return static_cast<int>(rng_.UniformInt(0, kNumLinkKinds - 1)); }

  std::string Cmp() {
    static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
    return kOps[rng_.UniformInt(0, 5)];
  }

  std::string PartRoot() {
    const int64_t lo = constants_.UniformInt(1, 48);
    return "select p.p_partkey, p.p_name from part p where p.p_size >= " +
           std::to_string(lo) + " and p.p_size <= " + std::to_string(lo + 2);
  }

  std::string OrdersRoot() {
    // ~1/20 of the 1992-01-01 .. 1998-08-02 order-date range.
    const int64_t start = constants_.UniformInt(8036, 10440 - 120);
    return "select o.o_orderkey, o.o_orderpriority from orders o "
           "where o.o_orderdate >= '" +
           nestra::FormatDate(start) + "' and o.o_orderdate < '" +
           nestra::FormatDate(start + 120) + "'";
  }

  // partsupp under part: 4 rows per part, nullable ps_supplycost linked to
  // p_retailprice (the two ranges overlap, so links mix true and false).
  Block PartSupp(bool narrow) {
    Block b{"partsupp", "ps", "ps.ps_supplycost", "p.p_retailprice",
            {"ps.ps_partkey = p.p_partkey"}};
    if (narrow || rng_.Bernoulli(0.5)) {
      b.conds.push_back("ps.ps_availqty < " +
                        std::to_string(constants_.UniformInt(4000, 6000)));
    }
    if (rng_.Bernoulli(0.25)) {
      b.conds.push_back("ps.ps_supplycost " + Cmp() + " p.p_retailprice");
    }
    return b;
  }

  // lineitem under partsupp: bounded by an equality on the part key (to the
  // parent, or — the Query 3 pattern — to the grandparent part), with an
  // optional theta correlation on the supplier (`<>` is Query 3b's).
  Block Lineitem(bool narrow) {
    Block b{"lineitem", "l", "l.l_extendedprice", "ps.ps_supplycost", {}};
    b.conds.push_back(rng_.Bernoulli(0.5) ? "l.l_partkey = p.p_partkey"
                                          : "l.l_partkey = ps.ps_partkey");
    if (rng_.Bernoulli(0.75)) {
      static const char* kOps[] = {"=", "<>", "<", ">"};
      b.conds.push_back(std::string("l.l_suppkey ") +
                        kOps[rng_.UniformInt(0, 3)] + " ps.ps_suppkey");
    }
    if (narrow || rng_.Bernoulli(0.5)) b.conds.push_back(QuantityWindow("l"));
    return b;
  }

  // A second lineitem block directly under part (tree shapes).
  Block LineitemUnderPart() {
    return Block{"lineitem",
                 "l2",
                 "l2.l_extendedprice",
                 "p.p_retailprice",
                 {"l2.l_partkey = p.p_partkey", QuantityWindow("l2")}};
  }

  Block LineitemUnderOrders() {
    Block b{"lineitem", "l", "l.l_extendedprice", "o.o_totalprice",
            {"l.l_orderkey = o.o_orderkey"}};
    if (rng_.Bernoulli(0.5)) {
      b.conds.push_back("l.l_quantity <= " +
                        std::to_string(constants_.UniformInt(20, 40)));
    }
    return b;
  }

  Block OrdersUnderLineitem() {
    Block b{"orders", "o", "o.o_totalprice", "l.l_extendedprice",
            {"o.o_orderkey = l.l_orderkey"}};
    if (rng_.Bernoulli(0.5)) {
      const std::string op = Cmp();
      b.conds.push_back("o.o_totalprice " + op + " " +
                        std::to_string(constants_.UniformInt(200000, 300000)));
    }
    return b;
  }

  std::string QuantityWindow(const std::string& alias) {
    const int64_t lo = constants_.UniformInt(1, 41);
    return alias + ".l_quantity >= " + std::to_string(lo) + " and " + alias +
           ".l_quantity <= " + std::to_string(lo + 9);
  }

  // " and <link>" for `child`, whose body also carries `inner` (the link of
  // its own child, already rendered as " and ...").
  std::string Link(int kind, const Block& child,
                   const std::string& inner = "") {
    auto body = [&](const std::string& item) {
      std::string where;
      for (const std::string& c : child.conds) {
        where += (where.empty() ? "" : " and ") + c;
      }
      return "select " + item + " from " + child.table + " " + child.alias +
             " where " + where + inner;
    };
    const std::string& outer = child.outer;
    switch (kind) {
      case 0:
        return " and exists (" + body(child.linked) + ")";
      case 1:
        return " and not exists (" + body(child.linked) + ")";
      case 2:
        return " and " + outer + " in (" + body(child.linked) + ")";
      case 3:
        return " and " + outer + " not in (" + body(child.linked) + ")";
      case 4:
        return " and " + outer + " " + Cmp() + " any (" + body(child.linked) +
               ")";
      case 5:
        return " and " + outer + " " + Cmp() + " all (" + body(child.linked) +
               ")";
      case 6: {
        static const char* kAggs[] = {"min", "max", "sum", "avg"};
        const std::string agg = kAggs[rng_.UniformInt(0, 3)];
        return " and " + outer + " " + Cmp() + " (" +
               body(agg + "(" + child.linked + ")") + ")";
      }
      default: {
        const std::string arg = rng_.Bernoulli(0.5) ? "*" : child.linked;
        const std::string constant =
            std::to_string(constants_.UniformInt(0, 4));
        return " and " + constant + " " + Cmp() + " (" +
               body("count(" + arg + ")") + ")";
      }
    }
  }

  Rng rng_;        // structure: conjuncts, operators, link kinds
  Rng constants_;  // literal constants, drawn from the run's seed
};

}  // namespace

std::vector<Statement> NullsCorpus(uint64_t seed, int count) {
  CorpusGenerator generator(seed);
  std::vector<Statement> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int shape = i % kNumShapes;
    const int kind = (i / kNumShapes) % kNumLinkKinds;
    out.push_back({"n" + std::to_string(i), generator.Build(shape, kind)});
  }
  return out;
}

}  // namespace perfbench
