module tmdb/bench

go 1.23.0

require tmdb v0.0.0

replace tmdb => ../
