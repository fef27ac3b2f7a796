package benchgen

import (
	"context"
	"strings"
	"testing"

	"datalab/internal/notebook"
	"datalab/internal/sqlengine"
)

func TestSuitesCalibrationOrdering(t *testing.T) {
	spider, _ := SuiteByName("Spider")
	bird, _ := SuiteByName("BIRD")
	if bird.Ambiguity <= spider.Ambiguity {
		t.Error("BIRD must be more ambiguous than Spider")
	}
	ds1000, _ := SuiteByName("DS-1000")
	dseval, _ := SuiteByName("DSEval")
	if ds1000.Difficulty <= dseval.Difficulty {
		t.Error("DS-1000 must be harder than DSEval")
	}
	if _, ok := SuiteByName("nonexistent"); ok {
		t.Error("unknown suite found")
	}
}

func TestGenerateSuiteDeterministic(t *testing.T) {
	s, _ := SuiteByName("Spider")
	s.N = 10
	a := GenerateSuite(s, "seed1")
	b := GenerateSuite(s, "seed1")
	for i := range a {
		if a[i].Query != b[i].Query || a[i].GoldSQL != b[i].GoldSQL {
			t.Fatal("suite generation not deterministic")
		}
	}
	c := GenerateSuite(s, "seed2")
	diff := false
	for i := range a {
		if a[i].Query != c[i].Query {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should differ")
	}
}

func TestGeneratedGoldSQLExecutes(t *testing.T) {
	for _, name := range []string{"Spider", "BIRD", "nvBench"} {
		s, _ := SuiteByName(name)
		s.N = 25
		for _, task := range GenerateSuite(s, "exec-test") {
			if task.GoldSQL == "" {
				t.Fatalf("%s: empty gold SQL", task.ID)
			}
			cat := sqlengine.NewCatalog()
			cat.Register(task.Table)
			res, err := cat.QueryCtx(context.Background(), task.GoldSQL)
			if err != nil {
				t.Fatalf("%s: gold SQL fails: %v\n%s", task.ID, err, task.GoldSQL)
			}
			if res == nil {
				t.Fatalf("%s: nil result", task.ID)
			}
		}
	}
}

func TestGeneratedTasksHaveRelevantColumns(t *testing.T) {
	s, _ := SuiteByName("BIRD")
	s.N = 20
	for _, task := range GenerateSuite(s, "rel") {
		if len(task.Relevant) == 0 {
			t.Fatalf("%s: no relevant columns", task.ID)
		}
		for _, col := range task.Relevant {
			if task.Table.ColumnIndex(col) < 0 {
				t.Fatalf("%s: relevant column %q not in table %v", task.ID, col, task.Table.ColumnNames())
			}
		}
	}
}

func TestVISTasksCarryChartType(t *testing.T) {
	s, _ := SuiteByName("VisEval")
	s.N = 20
	for _, task := range GenerateSuite(s, "vis") {
		if task.Gold.ChartType == "" {
			t.Fatalf("%s: no chart type", task.ID)
		}
	}
}

func TestInsightTasksCarryGoldText(t *testing.T) {
	s, _ := SuiteByName("InsightBench")
	s.N = 10
	for _, task := range GenerateSuite(s, "ins") {
		if task.GoldInsight == "" {
			t.Fatalf("%s: no gold insight", task.ID)
		}
	}
}

func TestBIRDIsCrypticizedSometimes(t *testing.T) {
	s, _ := SuiteByName("BIRD")
	s.N = 60
	cryptic := 0
	for _, task := range GenerateSuite(s, "cryptic") {
		for _, name := range task.Table.ColumnNames() {
			if strings.HasSuffix(name, "_f") || strings.HasSuffix(name, "_v2") ||
				strings.HasSuffix(name, "_amt") || strings.HasSuffix(name, "_cd") ||
				strings.HasSuffix(name, "_val") {
				cryptic++
				break
			}
		}
	}
	if cryptic < 10 {
		t.Errorf("BIRD should crypticize a large share of schemas, got %d/60", cryptic)
	}
}

func TestGenerateEnterprise(t *testing.T) {
	tables := GenerateEnterprise("test", 4)
	if len(tables) != 4 {
		t.Fatalf("tables = %d", len(tables))
	}
	for _, et := range tables {
		if len(et.Schema.Columns) < 6 {
			t.Errorf("schema too small: %d columns", len(et.Schema.Columns))
		}
		if len(et.Scripts) < 2 {
			t.Errorf("too few scripts: %d", len(et.Scripts))
		}
		if et.Data.NumRows() < 50 {
			t.Errorf("too little data: %d rows", et.Data.NumRows())
		}
		for _, c := range et.Schema.Columns {
			if et.ExpertColumnDesc[c.Name] == "" {
				t.Errorf("no expert description for %s", c.Name)
			}
			if et.Data.ColumnIndex(c.Name) < 0 {
				t.Errorf("schema column %s missing from data", c.Name)
			}
		}
	}
	// Lineage links consecutive tables.
	if len(tables[1].Lineage) == 0 {
		t.Error("no lineage edges generated")
	}
}

func TestEnterpriseScriptsParse(t *testing.T) {
	tables := GenerateEnterprise("parse", 3)
	for _, et := range tables {
		for _, s := range et.Scripts {
			if s.Language != "sql" {
				continue
			}
			clean := stripSQLComments(s.Text)
			if _, err := sqlengine.Parse(clean); err != nil {
				t.Errorf("script %s does not parse: %v\n%s", s.ID, err, s.Text)
			}
		}
	}
}

func stripSQLComments(sql string) string {
	var lines []string
	for _, line := range strings.Split(sql, "\n") {
		if i := strings.Index(line, "--"); i >= 0 {
			line = line[:i]
		}
		lines = append(lines, line)
	}
	return strings.Join(lines, "\n")
}

func TestSchemaLinkingPairs(t *testing.T) {
	tables := GenerateEnterprise("pairs", 4)
	pairs := SchemaLinkingPairs(tables, 50, "x")
	if len(pairs) != 50 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	for _, p := range pairs {
		if len(p.Relevant) == 0 || p.Query == "" || p.Table == "" {
			t.Fatalf("malformed pair: %+v", p)
		}
	}
}

func TestNL2DSLPairsMix(t *testing.T) {
	tables := GenerateEnterprise("dslpairs", 4)
	pairs := NL2DSLPairs(tables, 120, "y")
	derived := 0
	for _, p := range pairs {
		if err := p.Gold.Validate(); err != nil {
			t.Fatalf("invalid gold DSL: %v", err)
		}
		if p.NeedsDerived {
			derived++
		}
	}
	if derived < 20 || derived > 70 {
		t.Errorf("derived share = %d/120, want roughly a third", derived)
	}
}

func TestComplexQuestionsMentionMultipleIntents(t *testing.T) {
	tables := GenerateEnterprise("cq", 3)
	qs := ComplexQuestions(tables, 30, "z")
	if len(qs) != 30 {
		t.Fatalf("questions = %d", len(qs))
	}
	for _, q := range qs {
		intents := 0
		for _, kw := range []string{"anomal", "forecast", "why", "correlation", "chart", "plot", "summar", "report", "analy", "spike", "outlier"} {
			if strings.Contains(strings.ToLower(q.Query), kw) {
				intents++
			}
		}
		if intents < 2 {
			t.Errorf("question %s has too few intents: %q", q.ID, q.Query)
		}
	}
}

func TestGenerateNotebookSizes(t *testing.T) {
	for _, n := range []int{2, 10, 25, 49} {
		g, err := GenerateNotebook("size", n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := g.Notebook.NumCells(); got < n {
			t.Errorf("n=%d: cells = %d", n, got)
		}
	}
}

func TestGeneratedNotebookHasEdgesAndQueries(t *testing.T) {
	g, err := GenerateNotebook("edges", 20)
	if err != nil {
		t.Fatal(err)
	}
	edges := 0
	for _, c := range g.Notebook.Cells() {
		edges += len(g.Notebook.DependsOn(c.ID))
	}
	if edges < 5 {
		t.Errorf("too few dependency edges: %d", edges)
	}
	if len(g.Queries) < 3 {
		t.Errorf("too few queries: %d", len(g.Queries))
	}
	for _, q := range g.Queries {
		if q.Task == notebook.TaskUnknown {
			t.Errorf("query %q has unknown task", q.Query)
		}
	}
}
