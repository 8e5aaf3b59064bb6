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
// Config file format (JSON). The key list is the JSON tags on
// core.NodeConfig and its embedded query.Options (the node) plus those on
// nodeFile below (the process); decoding is strict, so an unknown or
// misspelt key — including a removed one such as semijoin_bloom_bits —
// fails at boot with the key named. An example with every key:
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
//	  "document_html": "<p>...</p>",       // document body served by the browser UI
//	  "location": "Brisbane",              // advertised location (default: the ORB address)
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
//	  "disable_pushdown": false,           // members run bare fragments; the coordinator compensates everything
//	  "merge_buf_rows": 64,                // per-member merge window and cursor batch (0 = default 64)
//	  "disable_semijoin": false,           // semi-joins filter at the coordinator only (no key pushdown)
//	  "semijoin_key_limit": 64,            // largest key set pushed as IN lists; larger sets go Bloom (0 = default 64)
//	  "cursor_max_open": 32,               // server-side cursor cap per servant (0 = default 32; past it, opens return whole results)
//	  "cursor_idle_ms": 120000,            // idle cursor reap TTL (0 = default 2 minutes)
//	  "gossip_interval_ms": 1000,          // gossip round pacing (0 = default 1s)
//	  "gossip_fanout": 3,                  // peers contacted per gossip round (0 = default 3)
//	  "subcoalition_size": 32,             // coalition size before discovery routes via representatives (0 = default 32, -1 = flat only)
//	  "fragment_threshold_bytes": 262144,  // GIOP fragmentation threshold (0 = default 256 KiB, -1 off)
//	  "chaos": { "seed": 1, "rules": [...] }, // optional fault-injection plan
//	  "interface": [ { "name": "T", "functions": [ ... ] } ],
//	  "interface_wtl": "Type T { ... }"    // interface in WebTassili syntax, appended to "interface"
//	}
//
// The -chaos flag loads a fault-injection plan (same JSON shape as the
// "chaos" config field) and applies it to the node's outbound IIOP calls,
// overriding the config field. With "http" set, /debug/metrics publishes the
// node's counters under "orb", "breakers", "mdcache", "plancache", "planner",
// "cursors", "gossip" and "parserpool".
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
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/trace"
	"repro/internal/wtl"
)

// nodeFile is the config file: the node itself (core.NodeConfig, whose JSON
// tags and those of the embedded query.Options are the node keys) plus the
// process-level keys declared here. Decoding is strict: an unknown or
// misspelt key fails at boot with the key named.
type nodeFile struct {
	core.NodeConfig
	Listen string `json:"listen"` // IIOP endpoint (default 127.0.0.1:0)
	HTTP   string `json:"http"`   // browser UI and /debug endpoint; "" = none
	Naming string `json:"naming"` // naming service to register with; "" = none
	// SchemaFile, when set, replaces the inline schema with the file's body.
	SchemaFile string `json:"schema_file"`
	// SlowCall sets the tracer's slow-call threshold: spans at least this
	// slow are kept in the slow-call ring (/debug/trace/slow) and logged.
	// 0 disables the slow-call log.
	SlowCall query.Millis `json:"slow_call_ms"`
	// The ORB product and its policy for outbound IIOP calls.
	Product                string         `json:"orb"` // default Orbix
	CallTimeout            query.Millis   `json:"call_timeout_ms"`
	RetryAttempts          int            `json:"retry_attempts"`
	BreakerThreshold       int            `json:"breaker_threshold"`
	BreakerCooldown        query.Millis   `json:"breaker_cooldown_ms"`
	FragmentThresholdBytes int            `json:"fragment_threshold_bytes"`
	Chaos                  *orb.FaultPlan `json:"chaos"`
	// InterfaceWTL declares the exported interface in the paper's WebTassili
	// syntax (Type X { attribute ...; function ...; }); its types are
	// appended to Interface.
	InterfaceWTL string `json:"interface_wtl"`
}

// loadConfig reads and strictly decodes a config file, applies the
// process-level defaults, and folds schema_file and interface_wtl into the
// node config.
func loadConfig(path string) (*nodeFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	cfg := &nodeFile{}
	if err := dec.Decode(cfg); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Product == "" {
		cfg.Product = string(orb.Orbix)
	}
	if cfg.InterfaceWTL != "" {
		parsed, err := codb.ParseInterface(cfg.InterfaceWTL)
		if err != nil {
			return nil, fmt.Errorf("interface_wtl: %w", err)
		}
		cfg.Interface = append(cfg.Interface, parsed...)
	}
	if cfg.SchemaFile != "" {
		body, err := os.ReadFile(cfg.SchemaFile)
		if err != nil {
			return nil, err
		}
		cfg.Schema = string(body)
	}
	return cfg, nil
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
	cfg, err := loadConfig(*configPath)
	if err != nil {
		log.Fatal(err)
	}

	tracer := trace.New(trace.Options{
		SlowThreshold: time.Duration(cfg.SlowCall),
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
		Product:     orb.Product(cfg.Product),
		CallTimeout: time.Duration(cfg.CallTimeout),
		Retry:       orb.RetryPolicy{MaxAttempts: cfg.RetryAttempts},
		Breaker: orb.BreakerPolicy{
			Threshold: cfg.BreakerThreshold,
			Cooldown:  time.Duration(cfg.BreakerCooldown),
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
	log.Printf("ORB %s listening on %s", cfg.Product, o.Addr())

	if *serveNaming {
		if _, _, err := naming.Serve(o); err != nil {
			log.Fatal(err)
		}
		log.Printf("naming service active at %s", o.Addr())
	}

	cfg.ORB = o
	node, err := core.NewNode(cfg.NodeConfig)
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
