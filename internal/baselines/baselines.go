// Package baselines implements the comparison methods of Table I as
// pipelines over the same simulated LLM and translation machinery that
// DataLab uses. Methods differ in the *strategies* their papers describe
// — few-shot selection, schema filtering with candidate ranking, logic-
// skeleton retrieval, free-form execution loops, structured vs NL
// multi-agent communication — expressed as the calibration parameters in
// calibration.go. The mechanisms set who wins where; the constants set
// magnitudes.
package baselines

import (
	"context"
	"fmt"

	"datalab/internal/benchgen"
	"datalab/internal/dsl"
	"datalab/internal/insight"
	"datalab/internal/knowledge"
	"datalab/internal/llm"
	"datalab/internal/metrics"
	"datalab/internal/sqlengine"
	"datalab/internal/table"
	"datalab/internal/viz"
)

// Method is one evaluated system (DataLab itself is expressed in the
// same frame so every method runs the identical harness).
type Method struct {
	Name string
	// Kinds lists the task families the method supports.
	Kinds []benchgen.TaskKind

	// SkillDelta adjusts the base model skill per suite (specialist
	// prompt/pipeline optimizations); keyed by suite name, with "" as
	// the default.
	SkillDelta map[string]float64
	// SchemaUnderstanding plays the KnowledgeLevel role: how well the
	// method's own schema handling (profiling, filtering, linking)
	// compensates for ambiguity. DataLab's data profiling gives 0.5+.
	SchemaUnderstanding float64
	// Iterations is the number of execution-feedback refinement rounds
	// the method's loop performs.
	Iterations int
	// Structured is false for methods communicating in free-form NL
	// between steps/agents (AutoGen-style).
	Structured bool
	// DifficultySensitivity scales how much residual task hardness hurts.
	DifficultySensitivity float64
	// UsesDSL marks methods that generate through a validated DSL
	// intermediate (DataLab): DSL specs always compile, removing a class
	// of syntax failures on symbolic-generation tasks.
	UsesDSL bool
}

// Supports reports whether the method runs the given task family.
func (m Method) Supports(kind benchgen.TaskKind) bool {
	for _, k := range m.Kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// skillFor resolves the base capability for a task family.
func skillFor(p llm.Profile, kind benchgen.TaskKind) float64 {
	switch kind {
	case benchgen.TaskNL2SQL:
		return p.SQLGeneration
	case benchgen.TaskNL2DSCode:
		return p.CodeGeneration
	case benchgen.TaskNL2Insight:
		return p.Reasoning
	case benchgen.TaskNL2VIS:
		return p.VisLiteracy
	}
	return p.Reasoning
}

// Result is one task outcome.
type Result struct {
	Correct bool
	// Legal reports output validity regardless of correctness (VisEval's
	// pass-rate notion: the chart is renderable and type-checks).
	Legal bool
	// Readability is set for NL2VIS tasks.
	Readability float64
	// Summary is set for NL2Insight tasks (feeds ROUGE / judge metrics).
	Summary string
}

// Run executes one benchmark task under the method and returns the
// outcome. The pipeline is the real one: profile the table, translate to
// a DSL, compile, execute, and compare against gold by execution
// equivalence. The simulated LLM injects residual error according to the
// method's calibration.
func (m Method) Run(task benchgen.Task, client *llm.Client) Result {
	if !m.Supports(task.Kind) {
		return Result{}
	}
	profiler := knowledge.NewProfiler(client)
	bundle := profiler.Profile(task.Table)
	translator := &knowledge.Translator{Client: client}

	delta, ok := m.SkillDelta[task.Suite]
	if !ok {
		delta = m.SkillDelta[""]
	}
	skill := skillFor(client.Profile(), task.Kind) + delta
	skill *= 1 - m.DifficultySensitivity*task.Difficulty
	if skill < 0.05 {
		skill = 0.05
	}
	if skill > 0.99 {
		skill = 0.99
	}

	q := llm.Quality{
		SchemaLinked:   1,
		KnowledgeLevel: m.SchemaUnderstanding,
		Ambiguity:      task.Ambiguity,
		Distraction:    0,
		Structured:     m.Structured,
		Iterations:     m.Iterations,
	}
	spec, faithful := translator.Translate(knowledge.TranslateRequest{
		Query:      task.Query,
		Table:      task.Table.Name,
		Candidates: bundle.Candidates(),
		ValueHints: bundle.ValueHints(),
		Key:        m.Name + "|" + task.ID,
		Skill:      skill,
		Quality:    q,
	})

	res := Result{}
	cat := sqlengine.NewCatalog()
	cat.Register(task.Table)

	switch task.Kind {
	case benchgen.TaskNL2SQL, benchgen.TaskNL2DSCode:
		// Pass/EX requires executing the generated program and matching
		// the gold result.
		got := execSpec(cat, spec)
		want := execGold(cat, task)
		res.Legal = got != nil
		res.Correct = faithful && metrics.ExecutionAccuracy(got, want)
		// Methods without a validated DSL intermediate lose an extra
		// slice of outputs to syntax/compile failures on symbolic tasks.
		if !m.UsesDSL && res.Correct {
			if !client.Attempt("syntax|"+m.Name+"|"+task.ID, "", "", 0.96, llm.Quality{Structured: true}) {
				res.Correct = false
				res.Legal = false
			}
		}
	case benchgen.TaskNL2VIS:
		gotChart, gotData := renderSpec(cat, spec)
		wantChart, wantData := renderSpec(cat, task.Gold)
		res.Legal = gotChart != nil
		if gotChart != nil && wantChart != nil {
			res.Correct = faithful && viz.EqualRendered(gotData, wantData)
			res.Readability = viz.Readability(gotChart, gotData)
		}
		if res.Legal {
			// VisEval's pass rate also fails charts on type mismatches,
			// truncated axes, and renderer incompatibilities that our
			// structural check cannot see; those land on a legality draw
			// whose odds improve for DSL-validated pipelines.
			pLegal := 0.72 + 0.10*skill
			if m.UsesDSL {
				pLegal += 0.04
			}
			if !client.Attempt("legal|"+m.Name+"|"+task.ID, "", "", pLegal, llm.Quality{Structured: true}) {
				res.Legal = false
			}
		}
	case benchgen.TaskNL2Insight:
		// The insight pipeline summarizes the gold measure when linking
		// succeeded; a mislinked run analyzes the wrong column.
		col := ""
		if len(spec.MeasureList) > 0 {
			col = spec.MeasureList[0].Column
		}
		res.Summary = insightSummary(task, col)
		res.Legal = res.Summary != ""
		res.Correct = faithful && col != "" &&
			len(task.Gold.MeasureList) > 0 && equalFold(col, task.Gold.MeasureList[0].Column)
	}
	return res
}

func execSpec(cat *sqlengine.Catalog, spec *dsl.Spec) *table.Table {
	if spec == nil {
		return nil
	}
	sql, err := spec.ToSQL()
	if err != nil {
		return nil
	}
	return queryTable(cat, sql, spec.Table)
}

func execGold(cat *sqlengine.Catalog, task benchgen.Task) *table.Table {
	return queryTable(cat, task.GoldSQL, task.Table.Name)
}

// queryTable executes sql and materializes the result under name; nil on
// any error.
func queryTable(cat *sqlengine.Catalog, sql, name string) *table.Table {
	res, err := cat.QueryCtx(context.Background(), sql)
	if err != nil {
		return nil
	}
	return res.Table(name)
}

func renderSpec(cat *sqlengine.Catalog, spec *dsl.Spec) (*viz.Spec, *viz.Rendered) {
	if spec == nil {
		return nil, nil
	}
	if spec.ChartType == "" {
		spec.ChartType = "bar"
	}
	chart, err := spec.ToChart()
	if err != nil {
		return nil, nil
	}
	sql, err := spec.ToSQL()
	if err != nil {
		return nil, nil
	}
	data := queryTable(cat, sql, spec.Table)
	if data == nil {
		return nil, nil
	}
	rendered, err := viz.Render(chart, data)
	if err != nil {
		return nil, nil
	}
	return chart, rendered
}

// insightSummary produces the method's own-voice summary about whichever
// column it linked. Correct runs share facts (not phrasing) with the gold
// reference, keeping ROUGE realistically below 1; mislinked runs talk
// about the wrong metric and overlap much less.
func insightSummary(task benchgen.Task, col string) string {
	if col == "" {
		return ""
	}
	if task.Table.ColumnIndex(col) < 0 {
		return fmt.Sprintf("analysis of %s found no usable signal", col)
	}
	facts := insight.Summarize(insight.EDA(task.Table), 2)
	return fmt.Sprintf("Examined the metric %s across the dataset. %s", col, facts)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
