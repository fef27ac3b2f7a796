package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"datalab"
	"datalab/internal/agent"
	"datalab/internal/benchgen"
	"datalab/internal/comm"
	"datalab/internal/knowledge"
	"datalab/internal/llm"
	"datalab/internal/sqlengine"
	"datalab/internal/table"
)

// The ask_enterprise workload: one closed-loop client calls Platform.Ask
// with the benchgen schema-linking, NL2DSL and multi-agent questions over
// the benchgen enterprise tables at their native 60-120 rows, each learned
// through LearnKnowledge, plus the enterprise glossary. Knowledge
// retrieval, the agents, the proxy and the simulated LLM do the work; the
// engine does little, so an engine gain should not move this workload.

const (
	askTables         = 24
	askCorpusSeed     = "enterprise-corpus"
	askSetupReps      = 150
	linkingQuestions  = 800
	dslQuestions      = 800
	complexQuestions  = 400
	platformLLMSeed   = "datalab" // datalab.New's default model seed
	platformLLMModel  = "gpt-4"   // datalab.New's default model
	retrieveTopK      = 10        // what agent.Runtime.Candidates asks for
	knowledgeDatabase = "sales_db"
)

type askQuestion struct {
	id, query, table string
}

// askInputs is everything the workload feeds the platform, generated from
// the seed.
type askInputs struct {
	tables    []benchgen.EnterpriseTable
	csv       [][]byte
	columns   [][]datalab.ColumnSchema
	scripts   [][]datalab.Script
	glossary  []datalab.Glossary
	questions []askQuestion
}

// genAsk builds the inputs. The warehouse the platform learns is one fixed
// benchgen corpus, as a deployment's warehouse is; the seed draws the
// questions users ask of it. Set-up work is then the same on every seed,
// and the questions are new on every seed.
func genAsk(seed int64) (*askInputs, error) {
	s := fmt.Sprint(seed)
	in := &askInputs{tables: benchgen.GenerateEnterprise(askCorpusSeed, askTables)}
	for _, et := range in.tables {
		var buf bytes.Buffer
		if err := et.Data.WriteCSV(&buf); err != nil {
			return nil, err
		}
		in.csv = append(in.csv, buf.Bytes())
		var cols []datalab.ColumnSchema
		for _, c := range et.Schema.Columns {
			cols = append(cols, datalab.ColumnSchema{Name: c.Name, Type: c.Type, Comment: c.Comment})
		}
		in.columns = append(in.columns, cols)
		var scripts []datalab.Script
		for _, sc := range et.Scripts {
			scripts = append(scripts, datalab.Script{ID: sc.ID, Language: string(sc.Language), Text: sc.Text})
		}
		in.scripts = append(in.scripts, scripts)
	}
	for _, j := range benchgen.Jargon() {
		in.glossary = append(in.glossary, datalab.Glossary{
			Term: j.Term, Definition: j.Definition, Aliases: j.Aliases,
			MapsToColumn: j.MapsToColumn, MapsToTable: j.MapsToTable,
		})
	}
	for i, p := range benchgen.SchemaLinkingPairs(in.tables, linkingQuestions, s) {
		in.questions = append(in.questions, askQuestion{fmt.Sprintf("link-%03d", i), p.Query, p.Table})
	}
	for i, p := range benchgen.NL2DSLPairs(in.tables, dslQuestions, s) {
		in.questions = append(in.questions, askQuestion{fmt.Sprintf("dsl-%03d", i), p.Query, p.Table})
	}
	for _, q := range benchgen.ComplexQuestions(in.tables, complexQuestions, s) {
		in.questions = append(in.questions, askQuestion{q.ID, q.Query, q.Table})
	}
	return in, nil
}

// setupPlatform builds the platform the way a user would: load every
// table, learn its knowledge, add the glossary. It appends each table
// load's time (ms) to loadMS and returns the total load time.
func (in *askInputs) setupPlatform(loadMS *[]float64) (*datalab.Platform, time.Duration, error) {
	p, err := datalab.New()
	if err != nil {
		return nil, 0, err
	}
	var loading time.Duration
	for i, et := range in.tables {
		t0 := time.Now()
		err := p.LoadCSV(et.Schema.Name, bytes.NewReader(in.csv[i]))
		el := time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("load %s: %w", et.Schema.Name, err)
		}
		loading += el
		*loadMS = append(*loadMS, ms(el))
		if err := p.LearnKnowledge(knowledgeDatabase, et.Schema.Name, in.columns[i], in.scripts[i]); err != nil {
			return nil, 0, fmt.Errorf("learn %s: %w", et.Schema.Name, err)
		}
	}
	p.AddGlossary(in.glossary...)
	return p, loading, nil
}

func (in *askInputs) rows() int64 {
	n := int64(0)
	for _, et := range in.tables {
		n += int64(et.Data.NumRows())
	}
	return n
}

// answerShape is what must repeat every time a question is asked: whether
// it was refused, the SQL, the agents that ran and the result size.
type answerShape struct {
	refused bool
	sql     string
	agents  string
	rows    int
	chart   bool
}

// isRefusal reports whether err is the proxy giving up on an agent after
// its retry budget: the simulated model's deterministic failure, which is
// an answer of the platform rather than an error of the benchmark.
func isRefusal(err error) bool {
	return err != nil && strings.HasPrefix(err.Error(), "comm: agent ") && strings.Contains(err.Error(), " exhausted ")
}

// shapeOf checks that an answer is well formed and returns its shape.
func shapeOf(ans *datalab.Answer) (answerShape, error) {
	sh := answerShape{sql: ans.SQL, agents: strings.Join(ans.AgentTrace, ","), chart: ans.ChartJSON != ""}
	if ans.SQL != "" {
		if ans.Err != nil {
			return sh, fmt.Errorf("generated SQL failed: %v", ans.Err)
		}
		if ans.Result == nil {
			return sh, fmt.Errorf("SQL ran but Result is nil")
		}
		if ans.Result.NumRows() != len(ans.Rows) || ans.Result.NumCols() != len(ans.Columns) {
			return sh, fmt.Errorf("Result is %dx%d but Rows/Columns are %dx%d",
				ans.Result.NumRows(), ans.Result.NumCols(), len(ans.Rows), len(ans.Columns))
		}
		sh.rows = ans.Result.NumRows()
	}
	if sh.chart && !json.Valid([]byte(ans.ChartJSON)) {
		return sh, fmt.Errorf("chart JSON does not parse")
	}
	if len(ans.AgentTrace) == 0 {
		return sh, fmt.Errorf("no agent ran")
	}
	return sh, nil
}

// askChecker remembers each question's first answer shape and reports any
// later answer that differs.
type askChecker struct {
	oc     *outcome
	shapes map[string]answerShape
}

func (c *askChecker) observe(q askQuestion, sh answerShape, how string) {
	prev, ok := c.shapes[q.id]
	if !ok {
		c.shapes[q.id] = sh
		return
	}
	if prev != sh {
		c.oc.wrongf("ask_enterprise %s (%s): answer changed: %+v then %+v", q.id, how, prev, sh)
	}
}

// knownRefusals is the refusal digest of the default seed and of the
// held-out seeds 101-110. The simulated model is deterministic, so on
// these seeds a change to the set of questions it refuses is a wrong
// answer. On other seeds, compare flags a digest that differs between
// its two sides.
var knownRefusals = map[int64]string{
	1:   "74a56bec0091adb5",
	101: "00fc9abd130fb987",
	102: "fa6a9e49dd0ce1bd",
	103: "d7fbbdc2484a5c6d",
	104: "fc4443c8969158c6",
	105: "44614726790d0da4",
	106: "c90ba099103ff149",
	107: "540eb84d64c26fd4",
	108: "c9c501e4e3003829",
	109: "fb1a7c012ef1af5a",
	110: "eac810d2da660fdc",
}

// refusalDigest hashes the sorted ids of the refused questions.
func (c *askChecker) refusalDigest() (int, string) {
	var ids []string
	for id, sh := range c.shapes {
		if sh.refused {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	sum := sha256.Sum256([]byte(strings.Join(ids, "\n")))
	return len(ids), fmt.Sprintf("%x", sum[:8])
}

// askOnce calls Platform.Ask and checks the answer. It returns the call's
// duration and whether it was refused.
func askOnce(p *datalab.Platform, q askQuestion, chk *askChecker) (time.Duration, bool, error) {
	t0 := time.Now()
	ans, err := p.Ask(q.query, q.table)
	el := time.Since(t0)
	if err != nil {
		if !isRefusal(err) {
			return el, false, fmt.Errorf("%s: %w", q.id, err)
		}
		chk.observe(q, answerShape{refused: true}, "Platform.Ask")
		return el, true, nil
	}
	sh, err := shapeOf(ans)
	if err != nil {
		chk.oc.wrongf("ask_enterprise %s %q: %v", q.id, q.query, err)
	}
	chk.observe(q, sh, "Platform.Ask")
	return el, false, nil
}

func runAsk(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	in, err := genAsk(cfg.seed)
	if err != nil {
		return nil, err
	}
	oc := &outcome{}
	var p *datalab.Platform
	var loadMS []float64
	for rep := 0; rep < askSetupReps; rep++ {
		p = nil
		runtime.GC()
		t0 := time.Now()
		var steps []float64
		pl, loading, err := in.setupPlatform(&steps)
		if err != nil {
			return nil, err
		}
		oc.setup = append(oc.setup, time.Since(t0).Seconds())
		loadMS = append(loadMS, ms(loading))
		oc.ingestRate = append(oc.ingestRate, float64(in.rows())/loading.Seconds())
		oc.ingestLat = append(oc.ingestLat, steps)
		p = pl
	}
	chk := &askChecker{oc: oc, shapes: map[string]answerShape{}}
	rtr := newRTReader()

	if cfg.trace {
		if err := askTraced(ctx, cfg, tr, in, p, chk, rtr, loadMS); err != nil {
			return nil, err
		}
	} else {
		end := deadline(cfg)
		for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
			for _, q := range in.questions {
				before := rtr.read()
				el, refused, err := askOnce(p, q, chk)
				oc.rt.add(before.to(rtr.read()))
				oc.attempted++
				if err != nil {
					oc.failed++
					oc.wrongf("ask_enterprise: %v", err)
					continue
				}
				if refused {
					oc.refused++
				}
				oc.lat = append(oc.lat, ms(el))
				oc.busy += el.Seconds()
			}
		}
		oc.rtOps = oc.attempted
	}
	n, digest := chk.refusalDigest()
	oc.refusals = &refusals{Refused: n, Questions: len(in.questions), Digest: digest}
	if want, ok := knownRefusals[cfg.seed]; ok && digest != want {
		oc.wrongf("ask_enterprise: refusal digest %s on seed %d, recorded %s", digest, cfg.seed, want)
	}
	return oc, nil
}

// rebuiltAsk is Platform.Ask assembled from the public parts of the agent,
// comm, knowledge and llm packages over the same inputs, so the traced run
// can time each layer from outside it.
type rebuiltAsk struct {
	client *llm.Client
	cat    *sqlengine.Catalog
	rt     *agent.Runtime
	side   *knowledge.Retriever // standalone calls, with its own client so the counts stay clean
}

func rebuildAsk(in *askInputs) (*rebuiltAsk, error) {
	profile, err := llm.ProfileByName(platformLLMModel)
	if err != nil {
		return nil, err
	}
	client := llm.NewClient(profile, platformLLMSeed)
	cat := sqlengine.NewCatalog()
	graph := knowledge.NewGraph()
	for i, et := range in.tables {
		t, err := table.ReadCSV(et.Schema.Name, bytes.NewReader(in.csv[i]))
		if err != nil {
			return nil, err
		}
		cat.Register(t)
		schema := et.Schema
		schema.Database = knowledgeDatabase
		bundle, err := knowledge.NewGenerator(client).Generate(schema, et.Scripts, nil)
		if err != nil {
			return nil, err
		}
		graph.AddBundle(bundle, knowledge.LevelFull)
	}
	for _, j := range benchgen.Jargon() {
		graph.AddJargon(j)
	}
	rt := agent.NewRuntime(client, cat).WithGraph(graph, knowledge.LevelFull)
	rt.Ambiguity = 0.3 // what LearnKnowledge sets
	client.ResetUsage()
	return &rebuiltAsk{
		client: client, cat: cat, rt: rt,
		side: knowledge.NewRetriever(graph, llm.NewClient(profile, platformLLMSeed)),
	}, nil
}

// agentSlugs names each planner role in metric names.
var agentSlugs = map[string]string{
	agent.NameSQL: "sql", agent.NameAnomaly: "anomaly", agent.NameCausal: "causal",
	agent.NameForecast: "forecast", agent.NameCleaning: "cleaning", agent.NameImpute: "impute",
	agent.NameEDA: "eda", agent.NameDSCode: "dscode", agent.NameChart: "chart", agent.NameInsight: "insight",
}

func agentSlug(name string) string {
	if s, ok := agentSlugs[name]; ok {
		return s
	}
	return strings.ToLower(strings.ReplaceAll(strings.TrimSuffix(name, " Agent"), " ", "_"))
}

// askCounts accumulates the per-ask counters of the traced run.
type askCounts struct {
	asks, agentCalls, agentOK, retries, forwardedTokens int64
	usage                                               llm.Usage
}

// timedAgent wraps a comm.Agent with a span around each Execute.
type timedAgent struct {
	inner  comm.Agent
	tr     *tracer
	parent int
	req    int64
	counts *askCounts
}

func (a *timedAgent) Name() string { return a.inner.Name() }

func (a *timedAgent) Execute(query string, inputs []comm.Info, attempt int) (comm.Info, error) {
	sp := a.tr.begin("agent."+agentSlug(a.inner.Name())+".Execute", a.parent, a.req)
	info, err := a.inner.Execute(query, inputs, attempt)
	a.tr.end(sp)
	a.counts.agentCalls++
	if err == nil {
		a.counts.agentOK++
	}
	return info, err
}

// sqlFromContent cuts a SQL unit's content at its "-- dsl:" annotation,
// as Platform.Ask does.
func sqlFromContent(s string) string {
	if i := strings.Index(s, "\n-- dsl:"); i >= 0 {
		return s[:i]
	}
	return strings.TrimRight(s, "\n")
}

// ask runs one question through the rebuilt pipeline, with spans around
// each layer call when tr is not nil, and returns the answer's shape.
func (rb *rebuiltAsk) ask(ctx context.Context, p *datalab.Platform, tr *tracer, q askQuestion, req int64, counts *askCounts) (answerShape, error) {
	root := tr.begin("ask", -1, req)
	sp := tr.begin("agent.Planner.Plan", root, req)
	plan, agents := agent.NewPlanner(rb.rt).Plan(q.query, q.table)
	tr.end(sp)
	px := tr.begin("comm.Proxy.Run", root, req)
	wrapped := make(map[string]comm.Agent, len(agents))
	for name, a := range agents {
		wrapped[name] = &timedAgent{inner: a, tr: tr, parent: px, req: req, counts: counts}
	}
	units, stats, err := comm.NewProxy(comm.DefaultProxyConfig()).Run(plan, wrapped, q.query)
	tr.end(px)
	counts.asks++
	counts.retries += int64(stats.Retries)
	counts.forwardedTokens += int64(stats.ForwardedTokens)
	if err != nil {
		tr.end(root)
		if !isRefusal(err) {
			return answerShape{}, fmt.Errorf("%s: %w", q.id, err)
		}
		return answerShape{refused: true}, nil
	}
	var sh answerShape
	var roles []string
	var fillErr error
	for _, u := range units {
		roles = append(roles, u.Role)
		switch u.Kind {
		case comm.KindSQL:
			sh.sql = sqlFromContent(u.Content)
			sp := tr.begin("ask.result_fill", root, req)
			res, err := p.QueryCtx(ctx, sh.sql)
			if err == nil {
				sh.rows = len(res.Strings())
			} else {
				fillErr = err
			}
			tr.end(sp)
		case comm.KindChart:
			sh.chart = true
			if !json.Valid([]byte(u.Content)) {
				fillErr = fmt.Errorf("chart JSON does not parse")
			}
		}
	}
	tr.end(root)
	sh.agents = strings.Join(roles, ",")
	if fillErr != nil {
		return sh, fmt.Errorf("%s: %w", q.id, fillErr)
	}
	return sh, nil
}

// standalone times the knowledge calls the SQL agent makes, with the same
// arguments, outside the ask, plus the fingerprint of the answer's SQL.
func (rb *rebuiltAsk) standalone(tr *tracer, q askQuestion, sql string, req int64) {
	sp := tr.begin("knowledge.Retriever.Rewrite", -1, req)
	rewritten := rb.side.Rewrite(q.query, nil)
	tr.end(sp)
	sp = tr.begin("knowledge.Retriever.RetrieveColumnsScoped", -1, req)
	rb.side.RetrieveColumnsScoped(rewritten, q.table, retrieveTopK)
	tr.end(sp)
	if sql != "" {
		sp = tr.begin("sqlengine.Fingerprint", -1, req)
		sqlengine.Fingerprint(sql)
		tr.end(sp)
	}
}

// askTraced first asks every question once through Platform.Ask, then
// alternates untraced and traced passes through the rebuilt pipeline.
// Every rebuilt answer must match the platform's answer to the same
// question. Per-layer times come from the traced passes, and the ratio of
// traced to untraced time on the same rebuilt pipeline is the tracing
// overhead. Counts (plan-cache and parse counts included) come from the
// first traced pass, so they repeat exactly.
func askTraced(ctx context.Context, cfg config, tr *tracer, in *askInputs, p *datalab.Platform, chk *askChecker, rtr *rtReader, loadMS []float64) error {
	oc := chk.oc
	rb, err := rebuildAsk(in)
	if err != nil {
		return fmt.Errorf("rebuild Ask: %w", err)
	}
	for _, q := range in.questions {
		_, refused, err := askOnce(p, q, chk)
		oc.attempted++
		if err != nil {
			oc.failed++
			oc.wrongf("ask_enterprise: %v", err)
		} else if refused {
			oc.refused++
		}
	}
	var plain, traced []float64 // ms per ask through the rebuilt pipeline
	var first askCounts
	var rt rtDelta
	var tracedOps, parses, hits, misses int64
	req := int64(0)
	end := deadline(cfg)
	for pass := 0; pass < 2 || time.Now().Before(end) || pass%2 == 1; pass++ {
		on := pass%2 == 1
		var t *tracer
		if on {
			t = tr
		}
		var counts askCounts
		usage0 := rb.client.Usage()
		pcsP, pcsR, parse0 := p.PlanCacheStats(), rb.cat.PlanCacheStats(), sqlengine.ParseCalls()
		for _, q := range in.questions {
			req++
			before := rtr.read()
			t0 := time.Now()
			sh, err := rb.ask(ctx, p, t, q, req, &counts)
			el := time.Since(t0)
			oc.attempted++
			if on {
				rt.add(before.to(rtr.read()))
				tracedOps++
			}
			if err != nil {
				oc.failed++
				oc.wrongf("ask_enterprise rebuilt: %v", err)
				continue
			}
			if sh.refused {
				oc.refused++
			}
			chk.observe(q, sh, "rebuilt Ask")
			if !on {
				plain = append(plain, ms(el))
				continue
			}
			traced = append(traced, ms(el))
			rb.standalone(tr, q, sh.sql, req)
		}
		if pass == 1 {
			pcsP1, pcsR1 := p.PlanCacheStats(), rb.cat.PlanCacheStats()
			hits = pcsP1.Hits - pcsP.Hits + pcsR1.Hits - pcsR.Hits
			misses = pcsP1.Misses - pcsP.Misses + pcsR1.Misses - pcsR.Misses
			parses = sqlengine.ParseCalls() - parse0
			u := rb.client.Usage()
			counts.usage = llm.Usage{
				PromptTokens:     u.PromptTokens - usage0.PromptTokens,
				CompletionTokens: u.CompletionTokens - usage0.CompletionTokens,
				Calls:            u.Calls - usage0.Calls,
			}
			first = counts
		}
	}

	m := zeroLayers()
	sum := summarize(tr.snapshot())
	m["agent.plan_us"] = metric{sum["agent.Planner.Plan"].meanUS(), "us"}
	for _, slug := range agentSlugs {
		m["agent."+slug+".execute_ms"] = metric{sum["agent."+slug+".Execute"].meanMS(), "ms"}
	}
	m["comm.proxy_self_us"] = metric{sum["comm.Proxy.Run"].selfMeanUS(), "us"}
	m["knowledge.retrieve_us"] = metric{sum["knowledge.Retriever.RetrieveColumnsScoped"].meanUS(), "us"}
	m["knowledge.rewrite_us"] = metric{sum["knowledge.Retriever.Rewrite"].meanUS(), "us"}
	m["ask.result_fill_ms"] = metric{sum["ask.result_fill"].meanMS(), "ms"}
	m["sqlengine.fingerprint_us"] = metric{sum["sqlengine.Fingerprint"].meanUS(), "us"}
	m["sqlengine.plan_cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["sqlengine.parse_calls"] = metric{float64(parses), "count"}
	asks := first.asks
	m["comm.agent_calls_per_ask"] = metric{ratio(first.agentCalls, asks), "count"}
	m["comm.retries_per_ask"] = metric{ratio(first.retries, asks), "count"}
	m["comm.agent_success_ratio"] = metric{ratio(first.agentOK, first.agentCalls), "ratio"}
	m["comm.forwarded_tokens_per_ask"] = metric{ratio(first.forwardedTokens, asks), "count"}
	m["llm.calls_per_ask"] = metric{ratio(int64(first.usage.Calls), asks), "count"}
	m["llm.prompt_tokens_per_ask"] = metric{ratio(int64(first.usage.PromptTokens), asks), "count"}
	m["llm.completion_tokens_per_ask"] = metric{ratio(int64(first.usage.CompletionTokens), asks), "count"}
	m["table.load_ms"] = metric{median(loadMS), "ms"}
	chunks, rows := int64(0), int64(0)
	for _, et := range in.tables {
		s, ok := rb.cat.Snapshot(et.Schema.Name)
		if !ok {
			return fmt.Errorf("table %s missing from the rebuilt catalog", et.Schema.Name)
		}
		chunks += int64(s.NumChunks())
		rows += int64(s.NumRows())
	}
	m["table.chunks"] = metric{float64(chunks), "count"}
	m["table.rows_per_publish"] = metric{ratio(rows, chunks), "count"}
	runtimeLayers(m, rt, tracedOps)
	m["trace_overhead_ratio"] = metric{mean(traced) / mean(plain), "ratio"}
	oc.layers = m
	return nil
}
