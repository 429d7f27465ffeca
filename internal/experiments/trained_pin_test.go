package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"iguard/internal/traffic"
)

// TestQuickMiraiModelPinned pins the trained bytes of the quick lab's
// Mirai context at the default n (16), the model the repo benchmark
// serves: the SHA-256 of the JSON of the three float rule sets and of
// the two compiled sets the benchmark's switches load. A refactor of
// training, rule generation, merging or compilation must leave every
// hash as it is; a deliberate model change updates them here.
func TestQuickMiraiModelPinned(t *testing.T) {
	ctx, err := NewLab(QuickLabConfig()).Context(traffic.Mirai)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		v    any
		want string
	}{
		{"GuardRules", ctx.GuardRules, "f3bdac5d972f61ad87269a27b17cbf1cffdf4310355e3f592231bd2a57eafa77"},
		{"IFRules", ctx.IFRules, "d49792530a8b0993d49e2c2f3a84416e36597774a97a919a50baff3aa83dec4d"},
		{"PLRules", ctx.PLRules, "a7e4b458064dfbe69d9864b436065742006edfda14694d794124995f85f50e1c"},
		{"PLCompiled", ctx.PLCompiled, "323d2f57476095c26ffb9785b4e4806432ad8e5cd2ce96d626bb27e513d204eb"},
		{"GuardCompiled", ctx.GuardCompiled, "672374501ce139ca09a7fc35c391e3d5f639f25304c56205f87bd695a58ebd7b"},
	} {
		b, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, pinned %s", c.name, got, c.want)
		}
	}
}
