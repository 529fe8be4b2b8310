package mth

import "fmt"

// Query is one MT-H benchmark query: optional setup/teardown statements
// (Q15 creates a view) around the query text. Queries are written in plain
// SQL — MTSQL's query language is SQL, interpreted against C and D (§2.4).
type Query struct {
	ID       int
	Name     string
	Setup    []string
	SQL      string
	Teardown []string
}

// Queries returns the 22 MT-H queries with the standard TPC-H validation
// parameters. sf scales Q11's fraction like TPC-H does.
func Queries(sf float64) []Query {
	q11fraction := 0.0001 / sf
	return []Query{
		{ID: 1, Name: "pricing summary report", SQL: `
SELECT l_returnflag, l_linestatus,
  SUM(l_quantity) AS sum_qty,
  SUM(l_extendedprice) AS sum_base_price,
  SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
  SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
  AVG(l_quantity) AS avg_qty,
  AVG(l_extendedprice) AS avg_price,
  AVG(l_discount) AS avg_disc,
  COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus`},

		{ID: 2, Name: "minimum cost supplier", SQL: `
SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
FROM part, supplier, partsupp, nation, region
WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
  AND p_size = 15 AND p_type LIKE '%BRASS'
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'EUROPE'
  AND ps_supplycost = (
    SELECT MIN(ps_supplycost) FROM partsupp, supplier, nation, region
    WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
      AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
      AND r_name = 'EUROPE')
ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
LIMIT 100`},

		{ID: 3, Name: "shipping priority", SQL: `
SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue,
  o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10`},

		{ID: 4, Name: "order priority checking", SQL: `
SELECT o_orderpriority, COUNT(*) AS order_count
FROM orders
WHERE o_orderdate >= DATE '1993-07-01' AND o_orderdate < DATE '1993-07-01' + INTERVAL '3' MONTH
  AND EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
GROUP BY o_orderpriority
ORDER BY o_orderpriority`},

		{ID: 5, Name: "local supplier volume", SQL: `
SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey AND r_name = 'ASIA'
  AND o_orderdate >= DATE '1994-01-01' AND o_orderdate < DATE '1994-01-01' + INTERVAL '1' YEAR
GROUP BY n_name
ORDER BY revenue DESC`},

		{ID: 6, Name: "forecasting revenue change", SQL: `
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1994-01-01' + INTERVAL '1' YEAR
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`},

		{ID: 7, Name: "volume shipping", SQL: `
SELECT supp_nation, cust_nation, l_year, SUM(volume) AS revenue
FROM (
  SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
    EXTRACT(YEAR FROM l_shipdate) AS l_year,
    l_extendedprice * (1 - l_discount) AS volume
  FROM supplier, lineitem, orders, customer, nation n1, nation n2
  WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND c_custkey = o_custkey
    AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey
    AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
      OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
    AND l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
) AS shipping
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year`},

		{ID: 8, Name: "national market share", SQL: `
SELECT o_year, SUM(CASE WHEN nation = 'BRAZIL' THEN volume ELSE 0 END) / SUM(volume) AS mkt_share
FROM (
  SELECT EXTRACT(YEAR FROM o_orderdate) AS o_year,
    l_extendedprice * (1 - l_discount) AS volume,
    n2.n_name AS nation
  FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, region
  WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey AND l_orderkey = o_orderkey
    AND o_custkey = c_custkey AND c_nationkey = n1.n_nationkey
    AND n1.n_regionkey = r_regionkey AND r_name = 'AMERICA'
    AND s_nationkey = n2.n_nationkey
    AND o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
    AND p_type = 'ECONOMY ANODIZED STEEL'
) AS all_nations
GROUP BY o_year
ORDER BY o_year`},

		{ID: 9, Name: "product type profit measure", SQL: `
SELECT nation, o_year, SUM(amount) AS sum_profit
FROM (
  SELECT n_name AS nation, EXTRACT(YEAR FROM o_orderdate) AS o_year,
    l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity AS amount
  FROM part, supplier, lineitem, partsupp, orders, nation
  WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey AND ps_partkey = l_partkey
    AND p_partkey = l_partkey AND o_orderkey = l_orderkey
    AND s_nationkey = n_nationkey AND p_name LIKE '%green%'
) AS profit
GROUP BY nation, o_year
ORDER BY nation, o_year DESC`},

		{ID: 10, Name: "returned item reporting", SQL: `
SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue,
  c_acctbal, n_name, c_address, c_phone, c_comment
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= DATE '1993-10-01' AND o_orderdate < DATE '1993-10-01' + INTERVAL '3' MONTH
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
ORDER BY revenue DESC
LIMIT 20`},

		{ID: 11, Name: "important stock identification", SQL: fmt.Sprintf(`
SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value
FROM partsupp, supplier, nation
WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'GERMANY'
GROUP BY ps_partkey
HAVING SUM(ps_supplycost * ps_availqty) > (
  SELECT SUM(ps_supplycost * ps_availqty) * %g
  FROM partsupp, supplier, nation
  WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'GERMANY')
ORDER BY value DESC`, q11fraction)},

		{ID: 12, Name: "shipping modes and order priority", SQL: `
SELECT l_shipmode,
  SUM(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS high_line_count,
  SUM(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END) AS low_line_count
FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
  AND l_receiptdate >= DATE '1994-01-01' AND l_receiptdate < DATE '1994-01-01' + INTERVAL '1' YEAR
GROUP BY l_shipmode
ORDER BY l_shipmode`},

		{ID: 13, Name: "customer distribution", SQL: `
SELECT c_count, COUNT(*) AS custdist
FROM (
  SELECT c_custkey AS ck, COUNT(o_orderkey) AS c_count
  FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey AND o_comment NOT LIKE '%special%requests%'
  GROUP BY c_custkey
) AS c_orders
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC`},

		{ID: 14, Name: "promotion effect", SQL: `
SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
  / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey
  AND l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-09-01' + INTERVAL '1' MONTH`},

		{ID: 15, Name: "top supplier",
			Setup: []string{`CREATE VIEW revenue0 AS
SELECT l_suppkey AS supplier_no, SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
FROM lineitem
WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-01-01' + INTERVAL '3' MONTH
GROUP BY l_suppkey`},
			SQL: `
SELECT s_suppkey, s_name, s_address, s_phone, total_revenue
FROM supplier, revenue0
WHERE s_suppkey = supplier_no
  AND total_revenue = (SELECT MAX(total_revenue) FROM revenue0)
ORDER BY s_suppkey`,
			Teardown: []string{"DROP VIEW revenue0"}},

		{ID: 16, Name: "parts/supplier relationship", SQL: `
SELECT p_brand, p_type, p_size, COUNT(DISTINCT ps_suppkey) AS supplier_cnt
FROM partsupp, part
WHERE p_partkey = ps_partkey AND p_brand <> 'Brand#45'
  AND p_type NOT LIKE 'MEDIUM POLISHED%'
  AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9)
  AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_comment LIKE '%Customer%Complaints%')
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size`},

		{ID: 17, Name: "small-quantity-order revenue", SQL: `
SELECT SUM(l_extendedprice) / 7.0 AS avg_yearly
FROM lineitem, part
WHERE p_partkey = l_partkey AND p_brand = 'Brand#23' AND p_container = 'MED BOX'
  AND l_quantity < (SELECT 0.2 * AVG(l_quantity) FROM lineitem WHERE l_partkey = p_partkey)`},

		{ID: 18, Name: "large volume customer", SQL: `
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, SUM(l_quantity) AS total_qty
FROM customer, orders, lineitem
WHERE o_orderkey IN (
    SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING SUM(l_quantity) > 250)
  AND c_custkey = o_custkey AND o_orderkey = l_orderkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
ORDER BY o_totalprice DESC, o_orderdate
LIMIT 100`},

		{ID: 19, Name: "discounted revenue", SQL: `
SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, part
WHERE (p_partkey = l_partkey AND p_brand = 'Brand#12'
    AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
    AND l_quantity >= 1 AND l_quantity <= 11 AND p_size BETWEEN 1 AND 5
    AND l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON')
  OR (p_partkey = l_partkey AND p_brand = 'Brand#23'
    AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
    AND l_quantity >= 10 AND l_quantity <= 20 AND p_size BETWEEN 1 AND 10
    AND l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON')
  OR (p_partkey = l_partkey AND p_brand = 'Brand#34'
    AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
    AND l_quantity >= 20 AND l_quantity <= 30 AND p_size BETWEEN 1 AND 15
    AND l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON')`},

		{ID: 20, Name: "potential part promotion", SQL: `
SELECT s_name, s_address
FROM supplier, nation
WHERE s_suppkey IN (
    SELECT ps_suppkey FROM partsupp
    WHERE ps_partkey IN (SELECT p_partkey FROM part WHERE p_name LIKE 'forest%')
      AND ps_availqty > (
        SELECT 0.5 * SUM(l_quantity) FROM lineitem
        WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey
          AND l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1994-01-01' + INTERVAL '1' YEAR))
  AND s_nationkey = n_nationkey AND n_name = 'CANADA'
ORDER BY s_name`},

		{ID: 21, Name: "suppliers who kept orders waiting", SQL: `
SELECT s_name, COUNT(*) AS numwait
FROM supplier, lineitem l1, orders, nation
WHERE s_suppkey = l1.l_suppkey AND o_orderkey = l1.l_orderkey AND o_orderstatus = 'F'
  AND l1.l_receiptdate > l1.l_commitdate
  AND EXISTS (SELECT 1 FROM lineitem l2
    WHERE l2.l_orderkey = l1.l_orderkey AND l2.l_suppkey <> l1.l_suppkey)
  AND NOT EXISTS (SELECT 1 FROM lineitem l3
    WHERE l3.l_orderkey = l1.l_orderkey AND l3.l_suppkey <> l1.l_suppkey
      AND l3.l_receiptdate > l3.l_commitdate)
  AND s_nationkey = n_nationkey AND n_name = 'SAUDI ARABIA'
GROUP BY s_name
ORDER BY numwait DESC, s_name
LIMIT 100`},

		{ID: 22, Name: "global sales opportunity", SQL: `
SELECT cntrycode, COUNT(*) AS numcust, SUM(bal) AS totacctbal
FROM (
  SELECT SUBSTRING(c_phone FROM 1 FOR 2) AS cntrycode, c_acctbal AS bal
  FROM customer
  WHERE SUBSTRING(c_phone FROM 1 FOR 2) IN ('13', '31', '23', '29', '30', '18', '17')
    AND c_acctbal > (
      SELECT AVG(c_acctbal) FROM customer
      WHERE c_acctbal > 0.00
        AND SUBSTRING(c_phone FROM 1 FOR 2) IN ('13', '31', '23', '29', '30', '18', '17'))
    AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey)
) AS custsale
GROUP BY cntrycode
ORDER BY cntrycode`},
	}
}

// QueryByID returns one query.
func QueryByID(sf float64, id int) (Query, error) {
	for _, q := range Queries(sf) {
		if q.ID == id {
			return q, nil
		}
	}
	return Query{}, fmt.Errorf("mth: no query %d", id)
}

// StagedExtras ride with Q1–Q22 through the sharded differential and the
// routing tests of internal/shard and this package: shapes the
// staged plan (ADR-015) must answer like the unsharded tier, which MT-H's own
// texts do not pin down — Q22 returns no row at these scale factors because
// the generator gives every customer an order.
func StagedExtras() []Query {
	return []Query{
		{ID: 101, Name: "Q22, every phone code, customers without a recent order", SQL: `
SELECT cntrycode, COUNT(*) AS numcust, SUM(bal) AS totacctbal
FROM (
  SELECT SUBSTRING(c_phone FROM 1 FOR 2) AS cntrycode, c_acctbal AS bal
  FROM customer
  WHERE SUBSTRING(c_phone FROM 1 FOR 1) IN ('1', '2', '3')
    AND c_acctbal > (
      SELECT AVG(c_acctbal) FROM customer
      WHERE c_acctbal > 0.00 AND SUBSTRING(c_phone FROM 1 FOR 1) IN ('1', '2', '3'))
    AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey AND o_orderdate >= DATE '1997-01-01')
) AS custsale
GROUP BY cntrycode
ORDER BY cntrycode`},
		{ID: 102, Name: "hoisted scalar over an empty input: NULL threshold, empty result", SQL: `
SELECT c_custkey, c_acctbal FROM customer
WHERE c_acctbal > (SELECT AVG(c_acctbal) FROM customer WHERE c_acctbal > 100000000)
ORDER BY c_custkey`},
		{ID: 103, Name: "hoisted scalar yielding two rows: the engine's error", SQL: `
SELECT COUNT(*) AS n FROM customer
WHERE c_acctbal > (SELECT c_acctbal FROM customer WHERE c_custkey <= 2)`},
		{ID: 104, Name: "Q20's shape with a threshold this data can tell apart: a cross-tenant SUM filters global rows", SQL: `
SELECT s_name, s_address FROM supplier, nation
WHERE s_suppkey IN (
    SELECT ps_suppkey FROM partsupp
    WHERE ps_availqty > (
      SELECT 40 * SUM(l_quantity) FROM lineitem
      WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey))
  AND s_nationkey = n_nationkey
ORDER BY s_name`},
		// A hoisted extremum meets the very attribute it was taken from. From o2
		// on the optimizer converts a *constant* beside a convertible attribute
		// into the owner's format, a round trip that is not exact, and leaves a
		// subquery's value alone: the stage's value must count as the latter, or
		// the equalities below lose their rows. 109 and 110 also hold the
		// classifier to the blocks nested in BETWEEN bounds and IN-list members.
		{ID: 105, Name: "hoisted MAX of a convertible attribute, equality", SQL: `
SELECT c_custkey, c_acctbal FROM customer
WHERE c_acctbal = (SELECT MAX(c_acctbal) FROM customer)
ORDER BY c_custkey`},
		{ID: 106, Name: "hoisted MAX and MIN, >= and <=", SQL: `
SELECT c_custkey, c_acctbal FROM customer
WHERE c_acctbal >= (SELECT MAX(c_acctbal) FROM customer)
   OR c_acctbal <= (SELECT MIN(c_acctbal) FROM customer)
ORDER BY c_custkey`},
		{ID: 107, Name: "hoisted MAX of o_totalprice, equality", SQL: `
SELECT o_orderkey, o_totalprice FROM orders
WHERE o_totalprice = (SELECT MAX(o_totalprice) FROM orders)
ORDER BY o_orderkey`},
		{ID: 108, Name: "hoisted MAX and MIN of o_totalprice, >= and <=", SQL: `
SELECT o_orderkey, o_totalprice FROM orders
WHERE o_totalprice >= (SELECT MAX(o_totalprice) FROM orders)
   OR o_totalprice <= (SELECT MIN(o_totalprice) FROM orders)
ORDER BY o_orderkey`},
		{ID: 109, Name: "hoisted bounds of a BETWEEN", SQL: `
SELECT COUNT(*) AS n, MIN(c_acctbal) AS lo, MAX(c_acctbal) AS hi FROM customer
WHERE c_acctbal BETWEEN (SELECT AVG(c_acctbal) FROM customer) AND (SELECT MAX(c_acctbal) FROM customer)`},
		{ID: 110, Name: "hoisted members of an IN list", SQL: `
SELECT c_custkey FROM customer
WHERE c_acctbal IN ((SELECT MIN(c_acctbal) FROM customer), (SELECT MAX(c_acctbal) FROM customer))
ORDER BY c_custkey`},
		// Grouped by an output alias: the coordinator's partial has to compute the
		// aliased expression, which the one aggregate split resolves (ADR-018).
		{ID: 111, Name: "aggregate grouped by an output alias", SQL: `
SELECT SUBSTRING(c_phone FROM 1 FOR 2) AS cc, COUNT(*) AS numcust, SUM(c_acctbal) AS bal
FROM customer
GROUP BY cc
ORDER BY cc`},
		{ID: 112, Name: "aggregate grouped by a CASE alias over a convertible attribute", SQL: `
SELECT CASE WHEN c_acctbal < 0 THEN 'debt' WHEN c_acctbal < 5000 THEN 'low' ELSE 'high' END AS band,
       COUNT(*), AVG(c_acctbal) AS avgbal, MAX(c_custkey) AS hi
FROM customer
GROUP BY band
ORDER BY band`},
	}
}
