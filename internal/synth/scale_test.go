package synth

import (
	"reflect"
	"testing"
)

func TestScaleConfig(t *testing.T) {
	for _, tc := range []struct {
		scale   string
		want    Config
		wantErr bool
	}{
		{scale: "small", want: SmallConfig()},
		{scale: "full", want: DefaultConfig()},
		{scale: "", wantErr: true},
		{scale: "Small", wantErr: true},
		{scale: "large", wantErr: true},
		{scale: "ful", wantErr: true},
	} {
		got, err := ScaleConfig(tc.scale)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ScaleConfig(%q) = nil error, want one", tc.scale)
			}
			continue
		}
		if err != nil {
			t.Errorf("ScaleConfig(%q): %v", tc.scale, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ScaleConfig(%q) returned the wrong configuration", tc.scale)
		}
	}
}
