package pagemap

import "pageseer/internal/obs"

// Full-table export for pageseer-sim -pagemap-csv/-json: the CSV digests
// below and obs.WriteJSON (TestRowsCSVJSONRoundTrip pins the JSON round
// trip).

// RowColumns is the per-page table's CSV shape; the column order matches
// Row's field order.
var RowColumns = obs.Columns[Row]{
	Header: []string{
		"page", "dram", "nvm", "buf", "pte",
		"reads", "writes", "ff_reads", "ff_writes",
		"wear_writes", "swap_ins", "swap_outs",
		"ins_regular", "ins_pct", "ins_mmu", "ins_follower",
		"unused_ins", "round_trips", "flap_events", "resident", "timeline",
	},
	Record: func(r Row) []string {
		u := obs.Uint
		return []string{
			u(r.Page), u(r.DRAM), u(r.NVM), u(r.Buf), u(r.PTE),
			u(r.Reads), u(r.Writes), u(r.FFReads), u(r.FFWrites),
			u(r.WearWrites), u(r.SwapIns), u(r.SwapOuts),
			u(r.InsRegular), u(r.InsPCT), u(r.InsMMU), u(r.InsFollower),
			u(r.UnusedIns), u(r.RoundTrips), u(r.FlapEvents), r.Resident, u(r.Timeline),
		}
	},
}

// RegionColumns is the 2MB-extent roll-up's CSV shape; the column order
// matches Region's field order.
var RegionColumns = obs.Columns[Region]{
	Header: []string{
		"region", "pages", "accesses", "wear_writes",
		"swap_ins", "swap_outs", "flap_events", "resident_dram",
		"hot_page", "hot_share",
	},
	Record: func(g Region) []string {
		u := obs.Uint
		return []string{
			u(g.Region), u(g.Pages), u(g.Accesses), u(g.WearWrites),
			u(g.SwapIns), u(g.SwapOuts), u(g.FlapEvents), u(g.ResidentDRAM),
			u(g.HotPage), obs.Float(g.HotShare),
		}
	},
}
