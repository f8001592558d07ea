// Command corpusgen writes a synthetic multilingual Wikipedia to disk
// in real dump formats, so the pipeline can be exercised from bytes
// exactly as it would be on real dumps.
//
// Two generators are available. The default (en/pt/vi, -scale) is the
// linguistically rich corpus for accuracy experiments; it ships with a
// JSON ground-truth file. With -editions the multi-edition fixture is
// generated instead: ten or more language editions (hyphenated
// long-tail codes included) in a star topology around a hub, with
// controllable cross-link density — the pivot planner's stress case,
// where most pairs are reachable only transitively.
//
// Either corpus can be written as MediaWiki XML page dumps (-format
// xml, one <lang>.xml per edition) or as DBpedia-style N-Triples dumps
// (-format ttl, <lang>-infobox-properties.ttl plus
// <lang>-interlanguage-links.ttl per edition). -gzip compresses every
// dump file, exercising ingestion's transparent decoding.
//
// Usage:
//
//	corpusgen [-out dir] [-format xml|ttl] [-gzip] [-seed N]
//	          [-scale small|full]
//	          [-editions] [-langs en,de,...] [-hub en] [-entities N]
//	          [-hub-link-pct 95] [-nonhub-link-pct 0] [-template-pct 100]
package main

import (
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dump"
	"repro/internal/ingest"
	"repro/internal/multi"
	"repro/internal/synth"
	"repro/internal/wiki"
)

// truthJSON is the serialized ground-truth format: per canonical type,
// the surface names per language with their canonical attribute ids.
type truthJSON struct {
	Types     map[string]map[string]map[string][]string `json:"types"`     // type → lang → surface → canons
	TypeNames map[string]map[string]string              `json:"typeNames"` // lang → localized → canon
}

func main() {
	out := flag.String("out", "corpus", "output directory")
	format := flag.String("format", "xml", "dump format: xml (MediaWiki pages) or ttl (DBpedia N-Triples)")
	gzipFlag := flag.Bool("gzip", false, "gzip-compress every dump file")
	scale := flag.String("scale", "small", "default corpus scale: small or full")
	seed := flag.Int64("seed", 0, "override generator seed (0 keeps the default)")
	editions := flag.Bool("editions", false, "generate the multi-edition star fixture instead of the en/pt/vi corpus")
	langsFlag := flag.String("langs", "", "editions mode: comma-separated language codes (default: the 12-edition set)")
	hub := flag.String("hub", "", "editions mode: hub edition every other edition links to (default: en, or the first language)")
	entities := flag.Int("entities", 0, "editions mode: entities per type (0 keeps the default)")
	hubLinkPct := flag.Int("hub-link-pct", -1, "editions mode: % chance a non-hub article links to the hub (-1 keeps the default)")
	nonHubLinkPct := flag.Int("nonhub-link-pct", -1, "editions mode: % chance two non-hub articles are linked; 0 makes every non-hub pair transitive-only (-1 keeps the default)")
	templatePct := flag.Int("template-pct", -1, "editions mode: % of articles naming their typed infobox template (-1 keeps the default)")
	flag.Parse()

	if *format != "xml" && *format != "ttl" {
		fmt.Fprintf(os.Stderr, "corpusgen: unknown -format %q (want xml or ttl)\n", *format)
		os.Exit(2)
	}
	scaleCfg, err := synth.ScaleConfig(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "corpusgen:", err)
		os.Exit(2)
	}
	if err := run(*out, *format, *gzipFlag, scaleCfg, *seed, *editions,
		*langsFlag, *hub, *entities, *hubLinkPct, *nonHubLinkPct, *templatePct); err != nil {
		fmt.Fprintln(os.Stderr, "corpusgen:", err)
		os.Exit(1)
	}
}

func run(out, format string, gz bool, scaleCfg synth.Config, seed int64, editions bool,
	langsFlag, hub string, entities, hubLinkPct, nonHubLinkPct, templatePct int) error {
	var (
		corpus *wiki.Corpus
		truth  *synth.GroundTruth
		err    error
	)
	if editions {
		cfg := synth.DefaultEditions()
		if langsFlag != "" {
			cfg.Languages = nil
			for _, raw := range strings.Split(langsFlag, ",") {
				if raw = strings.TrimSpace(raw); raw != "" {
					cfg.Languages = append(cfg.Languages, wiki.Language(raw))
				}
			}
			cfg.Hub = ""
		}
		if hub != "" {
			cfg.Hub = wiki.Language(hub)
		}
		if cfg.Hub == "" {
			cfg.Hub = multi.DefaultHub(cfg.Languages)
		}
		if entities > 0 {
			cfg.EntitiesPerType = entities
		}
		if hubLinkPct >= 0 {
			cfg.HubLinkPct = hubLinkPct
		}
		if nonHubLinkPct >= 0 {
			cfg.NonHubLinkPct = nonHubLinkPct
		}
		if templatePct >= 0 {
			cfg.TemplatePct = templatePct
		}
		if seed != 0 {
			cfg.Seed = uint64(seed)
		}
		corpus, _, err = synth.Editions(cfg)
	} else {
		cfg := scaleCfg
		if seed != 0 {
			cfg.Seed = seed
		}
		corpus, truth, err = synth.Generate(cfg)
	}
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	for _, lang := range corpus.Languages() {
		if format == "xml" {
			if err := writeDump(out, string(lang)+".xml", gz, func(w io.Writer) error {
				return dump.WriteCorpus(w, corpus, lang)
			}); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d articles)\n", dumpName(out, string(lang)+".xml", gz), corpus.LenLang(lang))
			continue
		}
		if err := writeDump(out, string(lang)+"-infobox-properties.ttl", gz, func(w io.Writer) error {
			return ingest.WriteProperties(w, corpus, lang)
		}); err != nil {
			return err
		}
		if err := writeDump(out, string(lang)+"-interlanguage-links.ttl", gz, func(w io.Writer) error {
			return ingest.WriteLinks(w, corpus, lang)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s + %s (%d articles)\n",
			dumpName(out, string(lang)+"-infobox-properties.ttl", gz),
			dumpName(out, string(lang)+"-interlanguage-links.ttl", gz),
			corpus.LenLang(lang))
	}

	if truth != nil {
		if err := writeTruth(out, truth); err != nil {
			return err
		}
	}
	fmt.Printf("corpus fingerprint %x\n", corpus.Fingerprint())
	return nil
}

func dumpName(dir, name string, gz bool) string {
	if gz {
		name += ".gz"
	}
	return filepath.Join(dir, name)
}

// writeDump writes one dump file, optionally gzip-compressed.
func writeDump(dir, name string, gz bool, render func(io.Writer) error) error {
	f, err := os.Create(dumpName(dir, name, gz))
	if err != nil {
		return err
	}
	var w io.Writer = f
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(f)
		w = zw
	}
	if err := render(w); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", name, err)
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func writeTruth(out string, truth *synth.GroundTruth) error {
	tj := truthJSON{
		Types:     make(map[string]map[string]map[string][]string),
		TypeNames: make(map[string]map[string]string),
	}
	for canon, tt := range truth.Types {
		tj.Types[canon] = make(map[string]map[string][]string)
		for lang, names := range tt.CanonsOf {
			m := make(map[string][]string, len(names))
			for name, canons := range names {
				m[name] = canons
			}
			tj.Types[canon][string(lang)] = m
		}
	}
	for lang, names := range truth.TypeNameToCanon {
		m := make(map[string]string, len(names))
		for local, canon := range names {
			m[local] = canon
		}
		tj.TypeNames[string(lang)] = m
	}
	path := filepath.Join(out, "ground_truth.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tj); err != nil {
		f.Close()
		return fmt.Errorf("write truth: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
