package workload

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"dbtoaster/internal/compiler"
)

// TestCompiledProgramDigests pins the printed trigger program of every
// workload query in every mode, and of the shared program of all 18 queries
// (with its sharing report) in every mode, by sha256. The goldens pin only
// the DBToaster-mode single-query programs; this holds the IVM, REP and
// Naive programs and the multi-query path too, so a compiler change that
// means to move no plan can show that it moved none.
func TestCompiledProgramDigests(t *testing.T) {
	pinned := map[string]string{
		"DBToaster/AXF":    "e22e761fe7c96ec092a89856662dc40700b9e4aef79694baed856da6be2e240d",
		"DBToaster/BSP":    "e170b0502b0fc41cd8d92a8259a1c6cc60ec905cb086cf119169f80a57a991a6",
		"DBToaster/BSV":    "8182aac640f1daa17eba32366de1df6caa10cc69e0c06b6cddaf425e088cfcf1",
		"DBToaster/MDDB1":  "df29178ae0862dfaae4b8319be920634f929c1727f3d539169d368161b6beed3",
		"DBToaster/MST":    "d0c3a958c2724f9985c6f7934aabee12df68373ec11f901a1ff947e0b58a431c",
		"DBToaster/PSP":    "2c3adcd63aee20cc0f25c76136e4e3a092dfe1812234cd2cbcdd3a2dbf2cdd8c",
		"DBToaster/Q1":     "62bb918eb8b492a1a3eb6b129fbdda6e3277e0a4c4864a1a3e2693f099e68bf1",
		"DBToaster/Q10":    "9bccfec6a844b1516010a562cc8feea862465d0d71bdbffcf213a3f144f7a70e",
		"DBToaster/Q11a":   "d2735105772ae5e39e9d999069b3623d927964f0d20b8293eab459554e6add27",
		"DBToaster/Q12":    "a408bb19aa9a9ad8766aba5b8d845e1807dcfa846c7df15f09f04367ba11dc76",
		"DBToaster/Q17a":   "fd59a2a2976934c0bd7b922034c8e422b8a65f394751ce3e3ed68922060bef28",
		"DBToaster/Q18a":   "527229cf6b023edcfaa2ab3d78d0f87af27d9dffbcd6eac3669b606454584671",
		"DBToaster/Q22a":   "1e86026be0daf76091ae34e4b6515290c3edf3124e2596b6b9960f5e8ff75ab6",
		"DBToaster/Q3":     "c7ff234544a341fe435ffbed00eafd7b40e14eb1604926b8ae4986313431d6fc",
		"DBToaster/Q4":     "7e4345e118a5be522eac7a79be571baaf327a039fff18af52dd8bf797f8eafae",
		"DBToaster/Q6":     "25014cc361cc7d2a1bdc9484e4cb85f8e25a721fdf798832688af40b9a330576",
		"DBToaster/SSB4":   "15267d755c2c82bfd99139c273ee63ad720f9d3ecd714973f7e6497c1dcca9b1",
		"DBToaster/VWAP":   "db3925daf89f0e8506c9b67614918bfc8e75f91d4e5448815c5f5813cbb98b8e",
		"DBToaster/shared": "5f074f3251c3f1e37e4568539e2c07ffac94cfda8660b8de1014ea85f8316dbf",
		"IVM/AXF":          "b8d0da1a9ec19f8ab678943dd863edb22dadad4c2220b48692d6403a8da7973b",
		"IVM/BSP":          "bd2aed6ff06a88bbee2e9c7552da7318edc3f61bfc6b592ecf21b9bf1652036e",
		"IVM/BSV":          "a16475467b0639bce11cc760b1e6c8c40a41c22a206410a70abf912a5283743f",
		"IVM/MDDB1":        "78ee8ea5eecb41bdeafbdc4d1aedad65d8c57d91278cb7025e0e56a8fb00e372",
		"IVM/MST":          "738a3aa6a44bf6cea18adb42d3801706055287642232a2a3ee26dc67a53ef72c",
		"IVM/PSP":          "520ad765f5a14c9d90af9af47511f994ab82b94a84c3ff003947a559e71f4b3f",
		"IVM/Q1":           "62bb918eb8b492a1a3eb6b129fbdda6e3277e0a4c4864a1a3e2693f099e68bf1",
		"IVM/Q10":          "04f6e36570e2317b1d9669ffea976e1b107e203bdb2b43a0a988c5de9232664d",
		"IVM/Q11a":         "75582a239fb87c1c2bbfe6389f716fd0332e500cbe18bf6fe785b4cc6a5fb432",
		"IVM/Q12":          "4ed56774ae9d9f3ba84486cc5a2fb785cb8fff61773993c766319b57e3d4f90d",
		"IVM/Q17a":         "9f3be77993f1bfbf8c6549c122c340d9ab73a6228a8eadd950c990e9a19029e1",
		"IVM/Q18a":         "055a937fa6f6e371d8ed6b768e0389bf2faaade9b10e27a19618cce0c6ba22b9",
		"IVM/Q22a":         "14613f76d81f69b86f84deff667f6f41c4e333b66a5b98e91c2ac0658d9b660c",
		"IVM/Q3":           "b937b7cd519b1e5383b26dfca6425440d93be831dc38135f5cc61a3b6298d138",
		"IVM/Q4":           "888fb7ff78a1a5f7a6216a70cbb4dc5b208b7772ef90b1c60d127d2167b38ec7",
		"IVM/Q6":           "25014cc361cc7d2a1bdc9484e4cb85f8e25a721fdf798832688af40b9a330576",
		"IVM/SSB4":         "635f83fbcaefe309f7b5c96782647e4c81950e3b9231d4cbbed1f73a9bf488de",
		"IVM/VWAP":         "766fbc2236c956ff3d0c051f225c9d21d3dbb4bd26136b25970be90423552a36",
		"IVM/shared":       "c42c29d6a13e940c8f7cb0ad345b837b72cea6ced2b92ee831191664b07a1d52",
		"REP/AXF":          "9dcb66fbacd8cdca10871715d1dd2211370a894a1b159d339ddb98bb678ac13e",
		"REP/BSP":          "2288d04a675ad73f7014f717b2cbbc663c8b9f5efa81de72918015d4cce22da2",
		"REP/BSV":          "44b8b453f7b5504c431aef2700f4b862c94dbd0f805bbba3d4b3406165ead34f",
		"REP/MDDB1":        "9c5ee855c0d49512aa9805a3c25a5dedc6395cb5e2a04d227e343e2e4ce8d057",
		"REP/MST":          "e6d9515cca0d74de34d26d83a2744e9040526fddb7b38389b5751d5b66844030",
		"REP/PSP":          "b5865cca4bc51cb81152c828cfb27428fd473a076d8cc8d5c673fd12ee184915",
		"REP/Q1":           "9b021c9ced4cc4811a92b7e1b4c730a39606d6782e8405ea039a7266254b93f7",
		"REP/Q10":          "4ba9e8a5321fc32960cef47497f45dfb3948118f235b778c594a6c499aa9cd51",
		"REP/Q11a":         "f596beadea2172bcf1dad68e0b81d464af5d63633c7d3cac110dde9916304c83",
		"REP/Q12":          "4afeff1ba9c24246b71349db7a7e6c251f2d7c35de2829b8f2f934bcd6eb8935",
		"REP/Q17a":         "0a8e1efdd8874ff4e0a058f454431248a6fed2a26bb9e0d22adf1a51c98da721",
		"REP/Q18a":         "ac8c4cceb5648b184bc2b5e665a870f7a6a90c0e2466d7d6cd40646050aa7b20",
		"REP/Q22a":         "9225c036592a18a5c48390e55bf05942c504aac1ad770f8c30457d02ca171693",
		"REP/Q3":           "0b2da22b9c3ba9859c930a5bf177d54173ad762452cfbea35df2ea33a719fa05",
		"REP/Q4":           "bf982f8b07d1bd46c066f7ca0c3ebcc352020cc3a682ae3ef3655d906d194944",
		"REP/Q6":           "320bcac9363566de4c8aed1079cc480aa5949d221bed05b68b70e61ab6a3d89c",
		"REP/SSB4":         "b6cf2e2451c3137831798ad6f39685a32f1eed509cbf14c16fb8fdfa6182be0f",
		"REP/VWAP":         "6143cbf165eb2564e2d8e1a0c5a0d38a7d4b68018bfe9823979de452725f6857",
		"REP/shared":       "48118088ca5d9c6082e8c2e5121c8e5396ae12ddb1b094ad005b94eee238171e",
		"Naive/AXF":        "b7e4f7dea4b754ab82ca1681e12e9c6ae62bf4bbc0e180fef02d4c1a751f9c9f",
		"Naive/BSP":        "e7f194c4a47dbe4d1c351f98049dbd19bb53bc3d28332d56530a2e6886d2b429",
		"Naive/BSV":        "cc9df42f409e365f4f3aa35e2c6bfd146bc006e0cf2d2944a90d84279c84bf79",
		"Naive/MDDB1":      "fed37163228983790acd19986a8a9f324b18b6e0c0c9e087380b681cc3c97bdf",
		"Naive/MST":        "195f10f6d81545e47d49b3d26205ae6ccf6b2123dc86f00e06c90d96037a5652",
		"Naive/PSP":        "a187e47fae275f816fca28c4417f1969145da18a2f2b5dfd99b79fd2626829b9",
		"Naive/Q1":         "227b3af600324be091fa74f3b3a45cf4e056c3a830277c2d4d50c0e43ba91e02",
		"Naive/Q10":        "c10e9b9d431610f5ab5eeb7fbd73dbfc41198635ca0f6a3d85f4f6bb003aab2a",
		"Naive/Q11a":       "ac52868d6869995809f5850d952866f8f3daecf976c1cfa9181c14c70c5b26a3",
		"Naive/Q12":        "5170b6267c370a0e5158d519c9fe2c313d78764ac50a2c9a1e93eb8cd0ea647d",
		"Naive/Q17a":       "389ab9fade792514918065e54ec70213cb652ef2267f6b9faba09dcb5557d455",
		"Naive/Q18a":       "09a621e1cf4084ef7d1b7632bda0463b394d80092fb78a118da0087ed96c5e26",
		"Naive/Q22a":       "7838e9cada4cb720051f296646983f5303ff49edd857e1f46261570b6a36a0ea",
		"Naive/Q3":         "db361278b03dbe3dbe1ac47490fcaf82e3fecaeb8c286fcd9d6985e2515bcd79",
		"Naive/Q4":         "d7797d61cf11af7ac568dd0d04abe69c7fd4bb6c80e40f7b3138256aa4c24d0f",
		"Naive/Q6":         "cd0322883dddc9c07db10911b967c5c28bdd0753631ece728ad1a7a2fd30653a",
		"Naive/SSB4":       "0d72ec867fb7b7d5992d7971dfc3367c55650db7f95be1bcc5d4136a8cbb3db7",
		"Naive/VWAP":       "5792073ef39ecca2ffd1b9296f244a1825f723c67be5d05f52b9c8e695d9b280",
		"Naive/shared":     "090d854d9e832dc9c92f04c19c102f43bbdc21a7912d7d73307a6323a7a016d5",
	}
	modes := []compiler.Mode{compiler.ModeDBToaster, compiler.ModeIVM, compiler.ModeREP, compiler.ModeNaive}
	check := func(label, text string) {
		t.Helper()
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(text)))
		if want := pinned[label]; got != want {
			t.Errorf("%s: compiled program changed (sha256 %s, pinned %s)", label, got, want)
		}
	}
	var names []string
	for _, spec := range All() {
		names = append(names, spec.Name)
	}
	ms, err := Combine(names)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range modes {
		for _, spec := range All() {
			prog, err := compiler.Compile(spec.Query, spec.Catalog, compiler.OptionsFor(mode))
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, spec.Name, err)
			}
			check(mode.String()+"/"+spec.Name, prog.String())
		}
		prog, rep, err := compiler.CompileSet(ms.Queries, ms.Catalog, compiler.OptionsFor(mode))
		if err != nil {
			t.Fatalf("%s/shared: %v", mode, err)
		}
		check(mode.String()+"/shared", prog.String()+rep.String())
	}
}
