package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/query"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "node.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadConfigKeys decodes every key the package doc comment documents and
// checks each lands in its intended field, in its intended unit.
func TestLoadConfigKeys(t *testing.T) {
	schemaPath := filepath.Join(t.TempDir(), "schema.sql")
	if err := os.WriteFile(schemaPath, []byte("CREATE TABLE f (a INT);"), 0o644); err != nil {
		t.Fatal(err)
	}
	body := `{
	  "name": "Royal Brisbane Hospital",
	  "engine": "Oracle",
	  "orb": "VisiBroker",
	  "listen": "127.0.0.1:9001",
	  "http": "127.0.0.1:8080",
	  "naming": "127.0.0.1:9000",
	  "information_type": "Research and Medical",
	  "documentation": "http://example.org/rbh",
	  "document_html": "<p>rbh</p>",
	  "location": "Brisbane",
	  "schema": "CREATE TABLE inline (a INT);",
	  "schema_file": "` + schemaPath + `",
	  "slow_call_ms": 50,
	  "call_timeout_ms": 2000,
	  "retry_attempts": 3,
	  "breaker_threshold": 5,
	  "breaker_cooldown_ms": 1000,
	  "min_members": 2,
	  "member_timeout_ms": 500,
	  "mdcache_ttl_ms": 3000,
	  "mdcache_neg_ttl_ms": 250,
	  "mdcache_max_entries": 4096,
	  "disable_pushdown": true,
	  "merge_buf_rows": 16,
	  "disable_semijoin": true,
	  "semijoin_key_limit": 8,
	  "cursor_max_open": 12,
	  "cursor_idle_ms": 120000,
	  "gossip_interval_ms": 1500,
	  "gossip_fanout": 4,
	  "subcoalition_size": -1,
	  "fragment_threshold_bytes": 262144,
	  "chaos": {"seed": 7, "rules": [{"addr": "127.0.0.1:1"}]},
	  "interface": [{"name": "Wards", "functions": [{"name": "Beds", "returns": "int",
	    "table": "wards", "result_column": "beds", "arg_column": "ward"}]}],
	  "interface_wtl": "Type ResearchProjects { attribute string ResearchProjects.Title; function real Funding(string ResearchProjects.Title x, Predicate(x)); }"
	}`
	got, err := loadConfig(writeConfig(t, body))
	if err != nil {
		t.Fatal(err)
	}
	ms := func(n int) query.Millis { return query.Millis(time.Duration(n) * time.Millisecond) }
	want := nodeFile{
		NodeConfig: core.NodeConfig{
			Name:              "Royal Brisbane Hospital",
			Engine:            "Oracle",
			InformationType:   "Research and Medical",
			Documentation:     "http://example.org/rbh",
			DocumentHTML:      "<p>rbh</p>",
			Location:          "Brisbane",
			Schema:            "CREATE TABLE f (a INT);", // schema_file wins
			MDCacheTTL:        ms(3000),
			MDCacheNegTTL:     ms(250),
			MDCacheMaxEntries: 4096,
			Options: query.Options{
				MinMembers:       2,
				MemberTimeout:    ms(500),
				DisablePushdown:  true,
				MergeBufRows:     16,
				DisableSemiJoin:  true,
				SemiJoinKeyLimit: 8,
				SubCoalitionSize: -1,
			},
			CursorMaxOpen:  12,
			CursorIdleTTL:  ms(120000),
			GossipInterval: ms(1500),
			GossipFanout:   4,
		},
		Listen:                 "127.0.0.1:9001",
		HTTP:                   "127.0.0.1:8080",
		Naming:                 "127.0.0.1:9000",
		SchemaFile:             schemaPath,
		SlowCall:               ms(50),
		Product:                "VisiBroker",
		CallTimeout:            ms(2000),
		RetryAttempts:          3,
		BreakerThreshold:       5,
		BreakerCooldown:        ms(1000),
		FragmentThresholdBytes: 262144,
		Chaos:                  &orb.FaultPlan{Seed: 7, Rules: []orb.FaultRule{{Addr: "127.0.0.1:1"}}},
		InterfaceWTL:           got.InterfaceWTL,
	}
	// The JSON interface comes first; interface_wtl's types are appended.
	if len(got.Interface) != 2 || got.Interface[0].Name != "Wards" || got.Interface[1].Name != "ResearchProjects" {
		t.Fatalf("interface = %+v", got.Interface)
	}
	if fn := got.Interface[0].Functions; !reflect.DeepEqual(fn, []codb.ExportedFunction{{Name: "Beds",
		Returns: "int", Table: "wards", ResultColumn: "beds", ArgColumn: "ward"}}) {
		t.Errorf("interface functions = %+v", fn)
	}
	want.Interface = got.Interface
	if !strings.HasPrefix(got.InterfaceWTL, "Type ResearchProjects") {
		t.Errorf("interface_wtl = %q", got.InterfaceWTL)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("decoded config\n got %+v\nwant %+v", *got, want)
	}
}

// TestLoadConfigDefaults: an empty config gets the process defaults, and a
// negative mdcache_ttl_ms survives decoding as the cache-off signal.
func TestLoadConfigDefaults(t *testing.T) {
	got, err := loadConfig(writeConfig(t, `{"mdcache_ttl_ms": -1}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Listen != "127.0.0.1:0" || got.Product != string(orb.Orbix) {
		t.Errorf("defaults: listen %q orb %q", got.Listen, got.Product)
	}
	if got.MDCacheTTL >= 0 {
		t.Errorf("mdcache_ttl_ms -1 decoded to %v, want negative", time.Duration(got.MDCacheTTL))
	}
}

// TestLoadConfigRejectsUnknownKeys: a misspelt key, or one a past version
// accepted and this one removed, fails the load with the key named instead
// of being silently ignored.
func TestLoadConfigRejectsUnknownKeys(t *testing.T) {
	for _, key := range []string{"sub_coalition_size", "semijoin_bloom_bits", "disable_streaming", "disable_gossip"} {
		_, err := loadConfig(writeConfig(t, `{"name": "N", "`+key+`": 1}`))
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("key %s: err = %v, want an unknown-field error naming it", key, err)
		}
	}
}
