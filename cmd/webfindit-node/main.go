// Command webfindit-node runs one WebFINDIT participant as a standalone
// process: its database engine, co-database, ISI and co-database servants on
// an IIOP endpoint, an optional HTTP browser UI, and optional registration
// with a naming service — so multiple processes form a real distributed
// federation, as in the paper's deployment.
//
// Usage:
//
//	webfindit-node -config node.json [-serve-naming]
//
// Config file format (JSON):
//
//	{
//	  "name": "Royal Brisbane Hospital",
//	  "engine": "Oracle",                  // Oracle|mSQL|DB2|Sybase|ObjectStore|Ontos
//	  "orb": "VisiBroker",                 // Orbix|OrbixWeb|VisiBroker
//	  "listen": "127.0.0.1:9001",          // IIOP endpoint
//	  "http": "127.0.0.1:8080",            // optional browser UI endpoint
//	  "naming": "127.0.0.1:9000",          // optional naming service to register with
//	  "information_type": "Research and Medical",
//	  "documentation": "http://example.org/rbh",
//	  "schema": "CREATE TABLE t (a INT);", // inline SQL, or:
//	  "schema_file": "schema.sql",
//	  "slow_call_ms": 50,                  // slow-call log threshold (0 = off)
//	  "call_timeout_ms": 2000,             // per-invocation IIOP deadline (0 = none)
//	  "retry_attempts": 3,                 // attempts for idempotent calls (0/1 = no retry)
//	  "breaker_threshold": 5,              // consecutive failures to open an endpoint breaker (0 = off)
//	  "breaker_cooldown_ms": 1000,         // open-state cooldown before the half-open probe
//	  "min_members": 1,                    // coalition-query quorum (0 = 1)
//	  "member_timeout_ms": 500,            // per-member fan-out deadline (0 = none)
//	  "mdcache_ttl_ms": 2000,              // metadata cache positive TTL (0 = default, -1 disables the cache)
//	  "mdcache_neg_ttl_ms": 250,           // metadata cache negative TTL (0 = default)
//	  "mdcache_max_entries": 4096,         // metadata cache LRU bound (0 = default)
//	  "disable_semijoin": false,           // semi-joins filter at the coordinator only (no key pushdown)
//	  "semijoin_key_limit": 64,            // largest key set pushed as IN lists; larger sets go Bloom (0 = default 64)
//	  "semijoin_bloom_bits": 10,           // Bloom prefilter bits per build-side key (0 = default 10)
//	  "cursor_max_open": 32,               // server-side cursor cap per servant (0 = default 32; past it, opens return whole results)
//	  "cursor_idle_ms": 120000,            // idle cursor reap TTL (0 = default 2 minutes)
//	  "gossip_interval_ms": 1000,          // gossip round pacing (0 = default 1s)
//	  "gossip_fanout": 3,                  // peers contacted per gossip round (0 = default 3)
//	  "subcoalition_size": 32,             // coalition size before discovery routes via representatives (0 = default 32, -1 = flat only)
//	  "fragment_threshold_bytes": 262144,  // GIOP fragmentation threshold (0 = default 256 KiB, -1 off)
//	  "chaos": { "seed": 1, "rules": [...] }, // optional fault-injection plan
//	  "interface": [ { "name": "T", "functions": [ ... ] } ]
//	}
//
// The -chaos flag loads a fault-injection plan (same JSON shape as the
// "chaos" config field) and applies it to the node's outbound IIOP calls,
// overriding the config field. Breaker states are published at
// /debug/metrics alongside the ORB counters.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/browser"
	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/relational"
	"repro/internal/trace"
	"repro/internal/wtl"
)

type nodeFile struct {
	Name            string `json:"name"`
	Engine          string `json:"engine"`
	ORB             string `json:"orb"`
	Listen          string `json:"listen"`
	HTTP            string `json:"http"`
	Naming          string `json:"naming"`
	InformationType string `json:"information_type"`
	Documentation   string `json:"documentation"`
	DocumentHTML    string `json:"document_html"`
	Location        string `json:"location"`
	Schema          string `json:"schema"`
	SchemaFile      string `json:"schema_file"`
	// SlowCallMS sets the tracer's slow-call threshold in milliseconds:
	// spans at least this slow are kept in the slow-call ring
	// (/debug/trace/slow) and logged. 0 disables the slow-call log.
	SlowCallMS int `json:"slow_call_ms"`
	// Fault-tolerance policy for outbound IIOP calls and coalition fan-out.
	CallTimeoutMS     int `json:"call_timeout_ms"`
	RetryAttempts     int `json:"retry_attempts"`
	BreakerThreshold  int `json:"breaker_threshold"`
	BreakerCooldownMS int `json:"breaker_cooldown_ms"`
	MinMembers        int `json:"min_members"`
	MemberTimeoutMS   int `json:"member_timeout_ms"`
	// Federation metadata cache knobs. TTL -1 disables the cache entirely;
	// 0 keeps the built-in defaults (2s positive, 250ms negative, 4096
	// entries). Stats are published at /debug/metrics under "mdcache".
	MDCacheTTLMS      int `json:"mdcache_ttl_ms"`
	MDCacheNegTTLMS   int `json:"mdcache_neg_ttl_ms"`
	MDCacheMaxEntries int `json:"mdcache_max_entries"`
	// Federated planner knobs. DisablePushdown runs every coalition member
	// on the bare fragment with full coordinator compensation (the planner's
	// differential-testing mode); MergeBufRows bounds each member's
	// streaming-merge channel (0 = default 64). DisableSemiJoin keeps
	// semi-join key sets at the coordinator (no IN pushdown, no Bloom);
	// SemiJoinKeyLimit is the exact-IN/Bloom crossover (0 = default 64);
	// SemiJoinBloomBits sizes the Bloom prefilter per build-side key
	// (0 = default 10). Planner counters are published at /debug/metrics
	// under "planner".
	DisablePushdown   bool `json:"disable_pushdown"`
	MergeBufRows      int  `json:"merge_buf_rows"`
	DisableSemiJoin   bool `json:"disable_semijoin"`
	SemiJoinKeyLimit  int  `json:"semijoin_key_limit"`
	SemiJoinBloomBits int  `json:"semijoin_bloom_bits"`
	// Streaming-reply knobs. CursorMaxOpen caps cursors held open per
	// servant (0 = default 32; an open past the cap returns the whole result
	// and keeps nothing); CursorIdleMS is the idle-reap TTL (0 = default 2
	// minutes); FragmentThresholdBytes is the GIOP message size past which
	// replies fragment on the wire (0 = default 256 KiB, -1 disables
	// fragmentation). Cursor counters are published at /debug/metrics under
	// "cursors".
	CursorMaxOpen int `json:"cursor_max_open"`
	CursorIdleMS  int `json:"cursor_idle_ms"`
	// Gossip membership and hierarchical-discovery knobs. GossipIntervalMS
	// paces the anti-entropy agent's rounds (0 = default 1000); GossipFanout
	// is the peers contacted per round (0 = default 3); SubCoalitionSize is
	// the coalition size above which stage-3 discovery routes through
	// sub-coalition representatives (0 = default 32, -1 keeps flat fan-out
	// for every size). Agent counters — rounds, deltas sent/applied,
	// digest/delta bytes, convergence lag — are published at /debug/metrics
	// under "gossip".
	GossipIntervalMS       int                 `json:"gossip_interval_ms"`
	GossipFanout           int                 `json:"gossip_fanout"`
	SubCoalitionSize       int                 `json:"subcoalition_size"`
	FragmentThresholdBytes int                 `json:"fragment_threshold_bytes"`
	Chaos                  *orb.FaultPlan      `json:"chaos"`
	Interface              []codb.ExportedType `json:"interface"`
	// InterfaceWTL declares the exported interface in the paper's WebTassili
	// syntax (Type X { attribute ...; function ...; }) instead of JSON.
	InterfaceWTL string `json:"interface_wtl"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("webfindit-node: ")
	configPath := flag.String("config", "", "path to the node's JSON config")
	serveNaming := flag.Bool("serve-naming", false, "also host a naming service on this node's ORB")
	chaosPath := flag.String("chaos", "", "path to a JSON fault-injection plan applied to outbound IIOP calls")
	flag.Parse()
	if *configPath == "" {
		log.Fatal("the -config flag is required")
	}
	data, err := os.ReadFile(*configPath)
	if err != nil {
		log.Fatal(err)
	}
	var cfg nodeFile
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("parse %s: %v", *configPath, err)
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.ORB == "" {
		cfg.ORB = string(orb.Orbix)
	}

	tracer := trace.New(trace.Options{
		SlowThreshold: time.Duration(cfg.SlowCallMS) * time.Millisecond,
		SlowLog:       log.Printf,
	})
	tracer.Publish("node", func() any { return cfg.Name })

	faults := cfg.Chaos
	if *chaosPath != "" {
		body, err := os.ReadFile(*chaosPath)
		if err != nil {
			log.Fatal(err)
		}
		var plan orb.FaultPlan
		if err := json.Unmarshal(body, &plan); err != nil {
			log.Fatalf("parse %s: %v", *chaosPath, err)
		}
		faults = &plan
	}
	o := orb.New(orb.Options{
		Product:     orb.Product(cfg.ORB),
		CallTimeout: time.Duration(cfg.CallTimeoutMS) * time.Millisecond,
		Retry:       orb.RetryPolicy{MaxAttempts: cfg.RetryAttempts},
		Breaker: orb.BreakerPolicy{
			Threshold: cfg.BreakerThreshold,
			Cooldown:  time.Duration(cfg.BreakerCooldownMS) * time.Millisecond,
		},
		FragmentThreshold: cfg.FragmentThresholdBytes,
		Faults:            faults,
	})
	o.EnableTracing(tracer)
	tracer.Publish("orb", func() any { return o.Stats.Snapshot() })
	tracer.Publish("breakers", func() any { return o.BreakerSnapshot() })
	if faults != nil {
		log.Printf("chaos: fault-injection plan active (%d rule(s))", len(faults.Rules))
	}
	if err := o.Listen(cfg.Listen); err != nil {
		log.Fatal(err)
	}
	defer o.Shutdown()
	log.Printf("ORB %s listening on %s", cfg.ORB, o.Addr())

	if *serveNaming {
		if _, _, err := naming.Serve(o); err != nil {
			log.Fatal(err)
		}
		log.Printf("naming service active at %s", o.Addr())
	}

	iface := cfg.Interface
	if cfg.InterfaceWTL != "" {
		parsed, err := codb.ParseInterface(cfg.InterfaceWTL)
		if err != nil {
			log.Fatalf("interface_wtl: %v", err)
		}
		iface = append(iface, parsed...)
	}
	schema := cfg.Schema
	if cfg.SchemaFile != "" {
		body, err := os.ReadFile(cfg.SchemaFile)
		if err != nil {
			log.Fatal(err)
		}
		schema = string(body)
	}
	node, err := core.NewNode(core.NodeConfig{
		Name:            cfg.Name,
		Engine:          cfg.Engine,
		ORB:             o,
		InformationType: cfg.InformationType,
		Documentation:   cfg.Documentation,
		DocumentHTML:    cfg.DocumentHTML,
		Location:        cfg.Location,
		Interface:       iface,
		Schema:          schema,

		DisableMDCache:    cfg.MDCacheTTLMS < 0,
		MDCacheTTL:        time.Duration(max(cfg.MDCacheTTLMS, 0)) * time.Millisecond,
		MDCacheNegTTL:     time.Duration(cfg.MDCacheNegTTLMS) * time.Millisecond,
		MDCacheMaxEntries: cfg.MDCacheMaxEntries,
		DisablePushdown:   cfg.DisablePushdown,
		MergeBufRows:      cfg.MergeBufRows,
		DisableSemiJoin:   cfg.DisableSemiJoin,
		SemiJoinKeyLimit:  cfg.SemiJoinKeyLimit,
		SemiJoinBloomBits: cfg.SemiJoinBloomBits,
		CursorMaxOpen:     cfg.CursorMaxOpen,
		CursorIdleTTL:     time.Duration(cfg.CursorIdleMS) * time.Millisecond,
		GossipInterval:    time.Duration(cfg.GossipIntervalMS) * time.Millisecond,
		GossipFanout:      cfg.GossipFanout,
		SubCoalitionSize:  cfg.SubCoalitionSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	tracer.Publish("gossip", func() any { return node.Gossip.Stats() })
	ctx, stopGossip := context.WithCancel(context.Background())
	defer stopGossip()
	go node.StartGossip(ctx)
	log.Print("gossip agent active")
	if node.MDCache != nil {
		tracer.Publish("mdcache", func() any { return node.MDCache.Snapshot() })
	}
	if node.RelDB != nil {
		tracer.Publish("plancache", func() any { return node.RelDB.PlanCacheStats() })
	}
	tracer.Publish("planner", func() any { return node.Processor.PlannerStats() })
	tracer.Publish("cursors", func() any { return node.CursorStats() })
	tracer.Publish("parserpool", func() any {
		return map[string]any{
			"sql": relational.SQLParserPoolStats(),
			"wtl": wtl.PoolStats(),
		}
	})
	if cfg.MinMembers > 0 || cfg.MemberTimeoutMS > 0 {
		node.Processor.SetMemberPolicy(cfg.MinMembers,
			time.Duration(cfg.MemberTimeoutMS)*time.Millisecond)
	}
	log.Printf("node %q up: engine=%s wrapper=%s", cfg.Name, cfg.Engine, node.Descriptor.Wrapper)
	fmt.Printf("ISI IOR:        %s\n", node.Descriptor.ISIRef)
	fmt.Printf("CoDatabase IOR: %s\n", node.Descriptor.CoDBRef)

	if cfg.Naming != "" {
		// The naming host may still be coming up when a federation is launched
		// as a batch of processes, so registration retries briefly instead of
		// failing on the first refused dial.
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := func() error {
				nc, err := naming.ClientFor(o, cfg.Naming)
				if err != nil {
					return err
				}
				if err := nc.Rebind("WebFINDIT/CoDatabases/"+cfg.Name, node.Descriptor.CoDBRef); err != nil {
					return fmt.Errorf("register co-database: %w", err)
				}
				if err := nc.Rebind("WebFINDIT/ISIs/"+cfg.Name, node.Descriptor.ISIRef); err != nil {
					return fmt.Errorf("register ISI: %w", err)
				}
				return nil
			}()
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				log.Fatalf("register with naming service: %v", err)
			}
			log.Printf("register with naming service: %v (retrying)", err)
			time.Sleep(200 * time.Millisecond)
		}
		log.Printf("registered with naming service at %s", cfg.Naming)
	}

	if cfg.HTTP != "" {
		mux := http.NewServeMux()
		mux.Handle("/", browser.NewServer(node).Handler())
		// Observability endpoints: per-operation latency histograms and
		// counters, recent/slow spans, published vars (ORB stats included).
		mux.Handle("/debug/", tracer.Handler())
		srv := &http.Server{Addr: cfg.HTTP, Handler: mux}
		go func() {
			log.Printf("browser UI at http://%s/ (metrics at /debug/metrics, traces at /debug/trace)", cfg.HTTP)
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatal(err)
			}
		}()
		defer srv.Close()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
}
