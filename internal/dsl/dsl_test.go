package dsl

import (
	"context"
	"strings"
	"testing"

	"datalab/internal/sqlengine"
	"datalab/internal/table"
	"datalab/internal/viz"
)

func sampleSpec() *Spec {
	return &Spec{
		Intent:        "total revenue by region in 2023",
		Table:         "sales",
		MeasureList:   []Measure{{Column: "amount", Aggregate: "sum", Alias: "total"}},
		DimensionList: []string{"region"},
		ConditionList: []Condition{{Column: "year", Operator: "=", Value: "2023"}},
		OrderByList:   []OrderBy{{Column: "total", Desc: true}},
		Limit:         10,
		ChartType:     "bar",
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := sampleSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []func(*Spec){
		func(s *Spec) { s.Table = "" },
		func(s *Spec) { s.MeasureList = nil; s.DimensionList = nil },
		func(s *Spec) { s.MeasureList[0].Column = "" },
		func(s *Spec) { s.MeasureList[0].Aggregate = "harmonic" },
		func(s *Spec) { s.DimensionList = []string{""} },
		func(s *Spec) { s.ConditionList[0].Operator = "~=" },
		func(s *Spec) { s.ConditionList[0].Column = "" },
		func(s *Spec) { s.ChartType = "hologram" },
		func(s *Spec) { s.Limit = -1 },
		func(s *Spec) {
			s.ConditionList = []Condition{{Column: "x", Operator: "between", Value: "1"}}
		},
		func(s *Spec) {
			s.ConditionList = []Condition{{Column: "x", Operator: "in"}}
		},
	}
	for i, mutate := range cases {
		s := sampleSpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := sampleSpec()
	parsed, err := Parse(s.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Table != s.Table || len(parsed.MeasureList) != 1 || parsed.Limit != 10 {
		t.Error("round trip lost fields")
	}
	if _, err := Parse("{"); err == nil {
		t.Error("bad JSON should error")
	}
	if _, err := Parse(`{"table": ""}`); err == nil {
		t.Error("invalid spec should fail validation on parse")
	}
}

func TestToSQLShape(t *testing.T) {
	sql, err := sampleSpec().ToSQL()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SELECT", "SUM(amount)", "FROM sales", "WHERE year = 2023", "GROUP BY region", "ORDER BY total DESC", "LIMIT 10"} {
		if !strings.Contains(sql, want) {
			t.Errorf("sql %q missing %q", sql, want)
		}
	}
}

// queryTable executes sql and materializes the result.
func queryTable(cat *sqlengine.Catalog, sql string) (*table.Table, error) {
	res, err := cat.QueryCtx(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	return res.Table("result"), nil
}

func TestToSQLExecutes(t *testing.T) {
	tbl := table.MustNew("sales",
		[]string{"region", "amount", "year"},
		[]table.Kind{table.KindString, table.KindFloat, table.KindInt})
	tbl.MustAppendRow(table.Str("east"), table.Float(100), table.Int(2023))
	tbl.MustAppendRow(table.Str("east"), table.Float(50), table.Int(2023))
	tbl.MustAppendRow(table.Str("west"), table.Float(75), table.Int(2023))
	tbl.MustAppendRow(table.Str("west"), table.Float(999), table.Int(2022))
	cat := sqlengine.NewCatalog()
	cat.Register(tbl)

	sql, err := sampleSpec().ToSQL()
	if err != nil {
		t.Fatal(err)
	}
	res, err := queryTable(cat, sql)
	if err != nil {
		t.Fatalf("compiled SQL does not execute: %v\nsql: %s", err, sql)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", res.NumRows())
	}
	if res.Get(0, "region").S != "east" || res.Get(0, "total").F != 150 {
		t.Errorf("top row = %v %v", res.Get(0, "region"), res.Get(0, "total"))
	}
}

func TestToSQLOperators(t *testing.T) {
	s := &Spec{
		Table:       "t",
		MeasureList: []Measure{{Column: "v", Aggregate: "count"}},
		ConditionList: []Condition{
			{Column: "a", Operator: "between", Value: "1", Value2: "5"},
			{Column: "b", Operator: "in", Values: []string{"x", "y"}},
			{Column: "c", Operator: "like", Value: "%foo%"},
			{Column: "d", Operator: "!=", Value: "bar"},
		},
	}
	sql, err := s.ToSQL()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a BETWEEN 1 AND 5", "b IN ('x', 'y')", "c LIKE '%foo%'", "d <> 'bar'"} {
		if !strings.Contains(sql, want) {
			t.Errorf("sql %q missing %q", sql, want)
		}
	}
	// The compiled SQL must parse.
	if _, err := sqlengine.Parse(sql); err != nil {
		t.Errorf("compiled SQL does not parse: %v\n%s", err, sql)
	}
}

func TestToSQLQuotesWeirdIdentifiers(t *testing.T) {
	s := &Spec{
		Table:         "23_customer_bg",
		MeasureList:   []Measure{{Column: "should income", Aggregate: "sum"}},
		DimensionList: []string{"prod-class"},
	}
	sql, err := s.ToSQL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "`should income`") || !strings.Contains(sql, "`prod-class`") {
		t.Errorf("identifiers not quoted: %s", sql)
	}
	if _, err := sqlengine.Parse(sql); err != nil {
		t.Errorf("quoted SQL does not parse: %v\n%s", err, sql)
	}
}

// TestToSQLQuotesReservedColumns pins sqlReserved against the lexer's
// keyword set: business columns named after SQL keywords — including
// RIGHT and FULL, reserved when outer joins were added — must quote and
// reparse.
func TestToSQLQuotesReservedColumns(t *testing.T) {
	for _, col := range []string{"when", "order", "group", "right", "full", "left", "case"} {
		s := &Spec{
			Table:         "t",
			MeasureList:   []Measure{{Column: col, Aggregate: "sum"}},
			DimensionList: []string{col},
		}
		sql, err := s.ToSQL()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sql, "`"+col+"`") {
			t.Errorf("reserved column %q not quoted: %s", col, sql)
		}
		if _, err := sqlengine.Parse(sql); err != nil {
			t.Errorf("column %q: quoted SQL does not parse: %v\n%s", col, err, sql)
		}
	}
}

func TestToChartBar(t *testing.T) {
	spec, err := sampleSpec().ToChart()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mark != viz.MarkBar {
		t.Errorf("mark = %v", spec.Mark)
	}
	if spec.Encoding["x"].Field != "region" {
		t.Errorf("x field = %v", spec.Encoding["x"].Field)
	}
	if spec.Encoding["y"].Field != "total" {
		t.Errorf("y field = %v", spec.Encoding["y"].Field)
	}
	if spec.Encoding["y"].Sort != "descending" {
		t.Errorf("y sort = %q", spec.Encoding["y"].Sort)
	}
}

func TestToChartInfersLineForTemporal(t *testing.T) {
	s := &Spec{
		Table:         "sales",
		MeasureList:   []Measure{{Column: "amount", Aggregate: "sum"}},
		DimensionList: []string{"ftime"},
	}
	spec, err := s.ToChart()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mark != viz.MarkLine {
		t.Errorf("mark = %v, want line for temporal dimension", spec.Mark)
	}
	if spec.Encoding["x"].Type != viz.Temporal {
		t.Errorf("x type = %v", spec.Encoding["x"].Type)
	}
}

func TestToChartPie(t *testing.T) {
	s := sampleSpec()
	s.ChartType = "arc"
	spec, err := s.ToChart()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Encoding["theta"] == nil || spec.Encoding["color"] == nil {
		t.Error("pie chart missing theta/color")
	}
}

func TestToChartErrors(t *testing.T) {
	s := &Spec{Table: "t", DimensionList: []string{"a"}}
	if _, err := s.ToChart(); err == nil {
		t.Error("chart without measure should error")
	}
	s2 := &Spec{Table: "t", MeasureList: []Measure{{Column: "v", Aggregate: "sum"}}}
	if _, err := s2.ToChart(); err == nil {
		t.Error("chart without dimension should error")
	}
}

func TestEndToEndDSLToRenderedChart(t *testing.T) {
	// DSL -> SQL -> result table -> chart spec -> rendered chart.
	tbl := table.MustNew("sales",
		[]string{"region", "amount", "year"},
		[]table.Kind{table.KindString, table.KindFloat, table.KindInt})
	tbl.MustAppendRow(table.Str("east"), table.Float(100), table.Int(2023))
	tbl.MustAppendRow(table.Str("west"), table.Float(75), table.Int(2023))
	cat := sqlengine.NewCatalog()
	cat.Register(tbl)

	s := sampleSpec()
	sql, err := s.ToSQL()
	if err != nil {
		t.Fatal(err)
	}
	res, err := queryTable(cat, sql)
	if err != nil {
		t.Fatal(err)
	}
	chart, err := s.ToChart()
	if err != nil {
		t.Fatal(err)
	}
	rendered, err := viz.Render(chart, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rendered.Series["x"]) != 2 {
		t.Errorf("rendered bars = %d", len(rendered.Series["x"]))
	}
}
