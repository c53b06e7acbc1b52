// Quickstart: build a schema and data from scratch, run nested queries, and
// compare the optimizer's plan with naive evaluation.
package main

import (
	"fmt"
	"log"

	"tmdb"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

func main() {
	// 1. Define a schema: a class Order with extension ORDERS. Attributes
	//    may be set-valued — items is a set of tuples.
	cat := tmdb.NewCatalog()
	orderT := types.Tuple(
		types.F("id", types.Int),
		types.F("customer", types.String),
		types.F("items", types.SetOf(types.Tuple(
			types.F("sku", types.String),
			types.F("qty", types.Int),
		))),
	)
	if err := cat.AddClass("Order", "ORDERS", orderT); err != nil {
		log.Fatal(err)
	}
	skuT := types.Tuple(types.F("sku", types.String), types.F("stock", types.Int))
	if err := cat.AddClass("Stock", "STOCK", skuT); err != nil {
		log.Fatal(err)
	}

	// 2. Load data.
	db := tmdb.NewDB()
	item := func(sku string, qty int64) tmdb.Value {
		return value.TupleOf(value.F("sku", value.Str(sku)), value.F("qty", value.Int(qty)))
	}
	orders := []tmdb.Value{
		value.TupleOf(
			value.F("id", value.Int(1)), value.F("customer", value.Str("ada")),
			value.F("items", value.SetOf(item("bolt", 4), item("nut", 9))),
		),
		value.TupleOf(
			value.F("id", value.Int(2)), value.F("customer", value.Str("grace")),
			value.F("items", value.SetOf(item("gear", 1))),
		),
		value.TupleOf(
			value.F("id", value.Int(3)), value.F("customer", value.Str("ada")),
			value.F("items", value.EmptySet),
		),
	}
	var stock []tmdb.Value
	for _, s := range []struct {
		sku   string
		stock int64
	}{{"bolt", 100}, {"nut", 0}, {"gear", 7}} {
		stock = append(stock, value.TupleOf(
			value.F("sku", value.Str(s.sku)), value.F("stock", value.Int(s.stock))))
	}
	// Load typechecks every row, then stores the set of them.
	if err := db.MustCreate("ORDERS", orderT).Load(orders); err != nil {
		log.Fatal(err)
	}
	if err := db.MustCreate("STOCK", skuT).Load(stock); err != nil {
		log.Fatal(err)
	}

	eng := tmdb.New(cat, db)

	// 3. A nested query: orders whose every item's sku is in stock — the
	//    subquery ranges over the stored STOCK extension and the predicate
	//    between blocks is a ⊆, which (per the paper's Table 2) requires
	//    grouping, so the optimizer compiles a nest join.
	q := `SELECT (id = o.id, customer = o.customer)
	      FROM ORDERS o
	      WHERE (SELECT i.sku FROM o.items i)
	            SUBSETEQ SELECT s.sku FROM STOCK s WHERE s.stock > 0`

	plan, err := eng.Explain(q, tmdb.Options{Strategy: tmdb.NestJoin})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- plan (paper's nest-join strategy):")
	fmt.Print(plan)

	for _, s := range []tmdb.Strategy{tmdb.Naive, tmdb.NestJoin} {
		res, err := eng.Query(q, tmdb.Options{Strategy: s})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("-- %s: %s (%v)\n", s, res.Value, res.Duration)
	}
}
