#include "requests.h"

#include <cstdlib>
#include <utility>

#include "common/rng.h"
#include "common/string_util.h"
#include "types/date_util.h"
#include "workload/tpch.h"

namespace htapbench {

using vdm::Rng;
using vdm::StrFormat;

namespace {

constexpr const char* kJeib = "journalentryitembrowser";

// Low-cardinality JEIB fields for GROUP BY. Names that come from joined
// views (companyname, glaccountname, partnername, ...) keep their joins
// alive in the optimized plan, so the field choice moves the join count.
const std::vector<std::string> kGroupFields = {
    "rbukrs",        "gjahr",          "rldnr",
    "drcrk",         "land1",          "currency",
    "companyname",   "ledgername",     "customercountryname",
    "countryname",   "glaccountname",  "costcentername",
    "partnername",   "dimname_01",     "chain2name_0",
    "suppliercountryname"};

// Projection fields. documenttotal / documentlines are left out: pages with
// the GROUP BY augmenter get their own slot in the kind rotation.
const std::vector<std::string> kProjectFields = {
    "belnr",          "docln",           "rbukrs",        "gjahr",
    "racct",          "budat",           "hsl",           "wsl",
    "drcrk",          "companyname",     "currency",      "ledgername",
    "customername",   "suppliername",    "glaccountname", "costcentername",
    "profitcentername", "countryname",   "partnername",   "chain3name_0",
    "chain3attr_1",   "chain2name_2",    "dimname_03",    "dimname_07",
    "dimname_11",     "ucountry"};

constexpr int64_t kCompanies = 20;      // t001 rows of workload/s4.cc
constexpr int64_t kFirstBudat = 18263;  // 2020-01-01, first posting date
constexpr int64_t kLastBudat = 20089;   // 2024-12-31

/// `k` distinct entries of `pool`, in draw order.
std::vector<std::string> Pick(Rng* rng, const std::vector<std::string>& pool,
                              size_t k,
                              const std::vector<std::string>& exclude = {}) {
  std::vector<std::string> left;
  for (const std::string& f : pool) {
    bool excluded = false;
    for (const std::string& e : exclude) excluded = excluded || e == f;
    if (!excluded) left.push_back(f);
  }
  std::vector<std::string> out;
  for (size_t i = 0; i < k && !left.empty(); ++i) {
    size_t j = static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(left.size()) - 1));
    out.push_back(left[j]);
    left.erase(left.begin() + static_cast<std::ptrdiff_t>(j));
  }
  return out;
}

std::string Company(int64_t k) {
  return StrFormat("C%03lld", static_cast<long long>(k));
}

Request Aggregate(Rng* rng, bool force_sum, bool company_filter) {
  Request r;
  r.kind = RequestKind::kAggregate;
  std::vector<std::string> group =
      Pick(rng, kGroupFields, static_cast<size_t>(rng->Uniform(1, 2)));
  r.sum = force_sum || rng->Bernoulli(0.5);
  if (company_filter) r.company = Company(rng->Uniform(1, kCompanies));
  std::string keys = vdm::Join(group, ", ");
  r.sql = StrFormat("select %s, %s from %s", keys.c_str(),
                    r.sum ? "sum(hsl) as s" : "count(*) as n", kJeib);
  if (!r.company.empty()) {
    r.sql += StrFormat(" where rbukrs = '%s'", r.company.c_str());
  }
  r.sql += " group by " + keys;
  r.columns = group.size() + 1;
  return r;
}

Request Page(Rng* rng, bool document_total, int64_t limit) {
  Request r;
  r.kind = RequestKind::kPage;
  std::vector<std::string> fields = Pick(
      rng, kProjectFields,
      static_cast<size_t>(rng->Uniform(document_total ? 1 : 2,
                                       document_total ? 7 : 8)));
  if (document_total) {
    fields.insert(fields.begin() +
                      rng->Uniform(0, static_cast<int64_t>(fields.size())),
                  "documenttotal");
  }
  r.limit = limit;
  r.offset = rng->Uniform(0, 2000) * 10;
  r.sql = StrFormat("select %s from %s limit %lld offset %lld",
                    vdm::Join(fields, ", ").c_str(), kJeib,
                    static_cast<long long>(r.limit),
                    static_cast<long long>(r.offset));
  r.columns = fields.size();
  return r;
}

Request Range(Rng* rng, bool by_date) {
  Request r;
  r.kind = RequestKind::kRange;
  r.range_column = by_date ? "budat" : "hsl";
  std::vector<std::string> fields =
      Pick(rng, kProjectFields, static_cast<size_t>(rng->Uniform(1, 5)),
           {r.range_column});
  fields.push_back(r.range_column);
  std::string where;
  if (by_date) {
    // ~55 postings per day: 1-3 days select 50-170 rows.
    r.lo = rng->Uniform(kFirstBudat, kLastBudat - 3);
    r.hi = r.lo + rng->Uniform(1, 3);
    where = StrFormat("budat >= date '%s' and budat < date '%s'",
                      vdm::FormatDate(r.lo).c_str(),
                      vdm::FormatDate(r.hi).c_str());
  } else {
    // hsl is uniform over +-50000 units: 50-150 units select 50-150 rows.
    r.lo = rng->Uniform(-50000, 49800);
    r.hi = r.lo + rng->Uniform(50, 150);
    where = StrFormat("hsl >= %lld and hsl < %lld",
                      static_cast<long long>(r.lo),
                      static_cast<long long>(r.hi));
  }
  r.sql = StrFormat("select %s from %s where %s",
                    vdm::Join(fields, ", ").c_str(), kJeib, where.c_str());
  r.columns = fields.size();
  return r;
}

std::string FormatCents(int64_t cents) {
  const int64_t mag = std::llabs(cents);
  return StrFormat("%s%lld.%02lld", cents < 0 ? "-" : "",
                   static_cast<long long>(mag / 100),
                   static_cast<long long>(mag % 100));
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kVdmAdhoc:
      return "vdm_adhoc";
    case Workload::kPagingServe:
      return "paging_serve";
    case Workload::kJournalHtap:
      return "journal_htap";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* workload) {
  for (Workload w : {Workload::kVdmAdhoc, Workload::kPagingServe,
                     Workload::kJournalHtap}) {
    if (name == WorkloadName(w)) {
      *workload = w;
      return true;
    }
  }
  return false;
}

std::vector<Request> PagingItems() {
  std::vector<Request> items;
  for (int64_t limit : {int64_t{10}, int64_t{100}, int64_t{1000}}) {
    for (int64_t page = 0; page < 16; ++page) {
      Request r;
      r.kind = RequestKind::kPagingItem;
      r.limit = limit;
      r.offset = page * limit;
      r.item = static_cast<int>(items.size());
      r.sql = vdm::PagingQuerySql(r.limit, r.offset);
      r.columns = 3;
      items.push_back(std::move(r));
    }
  }
  return items;
}

std::vector<Request> AdhocRequests(uint64_t seed, size_t n) {
  Rng rng(seed * 1000003 + 1);
  const int64_t limits[] = {10, 100, 1000};
  std::vector<Request> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // The cost-deciding choices cycle instead of being drawn, so that every
    // seed runs the same mix of cheap and expensive requests.
    const int64_t limit = limits[(i / 6) % 3];
    switch (i % 6) {
      case 0:
      case 3:
        out.push_back(Aggregate(&rng, /*force_sum=*/false,
                                /*company_filter=*/i % 6 == 0));
        break;
      case 1:
        out.push_back(Page(&rng, /*document_total=*/false, limit));
        break;
      case 4:
        out.push_back(Page(&rng, /*document_total=*/true, limit));
        break;
      default:
        out.push_back(Range(&rng, /*by_date=*/i % 6 == 2));
        break;
    }
  }
  return out;
}

std::vector<Request> JournalReaderRequests(uint64_t seed, size_t n) {
  Rng rng(seed * 1000003 + 2);
  std::vector<Request> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Aggregate(&rng, /*force_sum=*/true,
                            /*company_filter=*/i % 2 == 0));
  }
  return out;
}

std::vector<Request> PagingRequests(uint64_t seed, size_t n) {
  Rng rng(seed * 1000003 + 3);
  const std::vector<Request> items = PagingItems();
  std::vector<Request> out;
  out.reserve(n);
  // Shuffled blocks of all 48 items: every item recurs at the same rate.
  std::vector<size_t> block(items.size());
  for (size_t i = 0; i < block.size(); ++i) block[i] = i;
  while (out.size() < n) {
    for (size_t i = block.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(i)));
      std::swap(block[i], block[j]);
    }
    for (size_t i = 0; i < block.size() && out.size() < n; ++i) {
      out.push_back(items[block[i]]);
    }
  }
  return out;
}

std::vector<WriteOp> JournalWrites(uint64_t seed, size_t n,
                                   int64_t first_belnr) {
  Rng rng(seed * 1000003 + 4);
  std::vector<WriteOp> ops;
  ops.reserve(n);
  int64_t belnr = first_belnr;
  for (size_t j = 0; j < n; ++j) {
    WriteOp op;
    if (j % 8 == 7) {
      const WriteOp& target = ops[j - 4];
      op.update = true;
      op.target_op = j - 4;
      op.belnr = target.belnr;
      op.rldnr = target.rldnr;
      op.rbukrs = target.rbukrs;
      op.gjahr = target.gjahr;
      op.docln = rng.Uniform(
          1, static_cast<int64_t>(target.amounts_cents.size()));
      op.kostl = rng.Uniform(1, 1000);
      op.statements.push_back(StrFormat(
          "update acdoca set kostl = %lld where rldnr = '%s' and "
          "rbukrs = '%s' and gjahr = %lld and belnr = %lld and docln = %lld",
          static_cast<long long>(op.kostl), op.rldnr.c_str(),
          op.rbukrs.c_str(), static_cast<long long>(op.gjahr),
          static_cast<long long>(op.belnr),
          static_cast<long long>(op.docln)));
      ops.push_back(std::move(op));
      continue;
    }
    op.belnr = belnr++;
    op.rldnr = StrFormat("%lldL", static_cast<long long>(rng.Uniform(0, 3)));
    op.rbukrs = Company(rng.Uniform(1, kCompanies));
    op.gjahr = 2024;
    const int64_t lines = rng.Uniform(2, 4);
    int64_t balance = 0;
    for (int64_t l = 1; l < lines; ++l) {
      int64_t cents = rng.Uniform(-5000000, 5000000);
      balance += cents;
      op.amounts_cents.push_back(cents);
    }
    op.amounts_cents.push_back(-balance);
    const int64_t budat = rng.Uniform(19723, 20088);  // 2024
    std::string insert = "insert into acdoca values ";
    for (size_t l = 0; l < op.amounts_cents.size(); ++l) {
      const int64_t cents = op.amounts_cents[l];
      const std::string amount = FormatCents(cents);
      // kunnr / lifnr stay NULL: the line passes JEIB's access-control
      // filter, so JEIB sums see every posted line.
      insert += StrFormat(
          "%s('%s', '%s', %lld, %lld, %zu, %lld, null, null, %lld, %lld, "
          "%lld, date '%s', %s, %s, 1.00000, '%s')",
          l == 0 ? "" : ", ", op.rldnr.c_str(), op.rbukrs.c_str(),
          static_cast<long long>(op.gjahr), static_cast<long long>(op.belnr),
          l + 1, static_cast<long long>(rng.Uniform(1, 1000)),
          static_cast<long long>(rng.Uniform(1, 1000)),
          static_cast<long long>(rng.Uniform(1, 1000)),
          static_cast<long long>(rng.Uniform(1, 63)),
          vdm::FormatDate(budat).c_str(), amount.c_str(), amount.c_str(),
          cents >= 0 ? "S" : "H");
    }
    op.statements.push_back(std::move(insert));
    ops.push_back(std::move(op));
  }
  return ops;
}

std::string RequestListText(Workload workload, uint64_t seed, size_t reads,
                            size_t writes, int64_t first_belnr) {
  std::vector<Request> requests;
  switch (workload) {
    case Workload::kVdmAdhoc:
      requests = AdhocRequests(seed, reads);
      break;
    case Workload::kPagingServe:
      requests = PagingRequests(seed, reads);
      break;
    case Workload::kJournalHtap:
      requests = JournalReaderRequests(seed, reads);
      break;
  }
  std::string out;
  for (const Request& r : requests) {
    if (r.kind == RequestKind::kPagingItem) {
      out += StrFormat("execute item=%d limit=%lld offset=%lld\n", r.item,
                       static_cast<long long>(r.limit),
                       static_cast<long long>(r.offset));
    } else {
      out += r.sql + "\n";
    }
  }
  if (workload == Workload::kJournalHtap) {
    for (const WriteOp& op : JournalWrites(seed, writes, first_belnr)) {
      if (!op.update) out += "begin\n";
      for (const std::string& s : op.statements) out += s + "\n";
      if (!op.update) out += "commit\n";
    }
  }
  return out;
}

}  // namespace htapbench
