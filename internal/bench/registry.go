package bench

import "kwmds/internal/stats"

// Config scales the experiment suite.
type Config struct {
	// Quick shrinks the medium workloads (used by benchmarks and smoke
	// tests); the full tables in EXPERIMENTS.md use Quick = false.
	Quick bool
	// Trials is the number of seeds for the expectation experiments.
	Trials int
}

// DefaultConfig is the configuration used to produce EXPERIMENTS.md.
func DefaultConfig() Config { return Config{Quick: false, Trials: 15} }

// QuickConfig is a fast configuration for smoke tests.
func QuickConfig() Config { return Config{Quick: true, Trials: 5} }

// Runner produces the tables of one experiment.
type Runner struct {
	ID          string
	Description string
	Run         func(Config) []*stats.Table
}

// Runners lists every experiment, in the order cmd/experiments prints them.
func Runners() []Runner {
	return []Runner{
		{"T1", "Theorem 4: Algorithm 2 LP quality and rounds",
			func(Config) []*stats.Table { return T1() }},
		{"T2", "Theorem 5: Algorithm 3 LP quality and rounds",
			func(Config) []*stats.Table { return T2() }},
		{"T3", "Theorem 3: randomized rounding expectation",
			func(c Config) []*stats.Table { return T3(max(4*c.Trials, 40)) }},
		{"T4", "Theorem 6: end-to-end size/rounds/messages vs k",
			func(c Config) []*stats.Table { return T4(c.Quick, c.Trials) }},
		{"T5", "Sections 1-2: baseline comparison",
			func(c Config) []*stats.Table { return T5(c.Quick, max(c.Trials/5, 2)) }},
		{"T6", "Remark after Theorem 3: ln−lnln variant",
			func(c Config) []*stats.Table { return T6(max(4*c.Trials, 40)) }},
		{"T7", "Remark after Theorem 4: weighted variant",
			func(Config) []*stats.Table { return T7() }},
		{"T8", "Remark after Theorem 6: k = log∆ scaling",
			func(c Config) []*stats.Table { return T8(c.Trials) }},
		{"T9", "Lemma 1: dual lower bound tightness",
			func(Config) []*stats.Table { return T9() }},
		{"F1", "Figure 1: activity threshold cascade",
			func(Config) []*stats.Table { return F1() }},
		{"L1", "Engine scaling: simulated end-to-end runs on large graphs",
			func(c Config) []*stats.Table { return L1(c.Quick) }},
	}
}

// Run executes one experiment by id, returning nil if the id is unknown.
func Run(id string, cfg Config) []*stats.Table {
	for _, r := range Runners() {
		if r.ID == id {
			return r.Run(cfg)
		}
	}
	return nil
}
